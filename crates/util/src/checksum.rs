//! A dependency-free 64-bit content checksum for on-disk records.
//!
//! The write-ahead log (`gfd_parallel::wal`) frames plain bytes on
//! disk and must detect torn writes, truncated tails and bit rot
//! without pulling in a CRC crate. [`checksum64`] is an xxhash-style
//! multiply-rotate hash over 8-byte lanes with a SplitMix64 finalizer:
//! every input bit avalanches through two 64-bit multiplies, so a
//! single flipped bit anywhere in the frame changes the checksum with
//! probability ~1 − 2⁻⁶⁴ — the detection strength the write-ahead
//! log's truncate-at-first-corrupt-frame recovery rule relies on.
//! It is **not** a cryptographic MAC: the threat model is crashes and
//! media corruption, not an adversary who can rewrite checksums.
//!
//! [`Checksum64`] computes the same value over input that arrives in
//! pieces, so a frame can be checksummed as it streams to disk.
//!
//! The function is pure and stable: the same bytes produce the same
//! checksum on every platform and in every release, which makes it
//! part of the log's on-disk format (changing it is a format bump).

/// Golden-ratio increment, the SplitMix64 stream constant.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Lane multipliers (the SplitMix64 finalizer constants — odd, with
/// good avalanche properties under multiply-xor-shift mixing).
const M1: u64 = 0xBF58_476D_1CE4_E5B9;
const M2: u64 = 0x94D0_49BB_1331_11EB;

/// The SplitMix64 finalizer: a bijective 64-bit mix with full
/// avalanche (every input bit flips every output bit with p ≈ 1/2).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(M1);
    z = (z ^ (z >> 27)).wrapping_mul(M2);
    z ^ (z >> 31)
}

/// One lane step: the accumulator absorbs the mixed 8-byte lane `v`.
#[inline]
fn absorb(h: u64, v: u64) -> u64 {
    (h ^ mix(v))
        .rotate_left(27)
        .wrapping_mul(M2)
        .wrapping_add(SEED)
}

/// Checksums `bytes`: 8-byte little-endian lanes folded through a
/// multiply-rotate accumulator, the tail zero-padded, the length mixed
/// into the finalizer (so `"a"` and `"a\0"` differ). The one-shot form
/// of [`Checksum64`]: the same value for the same bytes.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Checksum64::new(bytes.len() as u64);
    c.update(bytes);
    c.finish()
}

/// [`checksum64`] over bytes that arrive in pieces — a log frame
/// streamed to disk in chunks. The total length seeds the accumulator,
/// so it is declared up front; the state is the accumulator plus the
/// up-to-7 bytes of a lane not yet complete, however the input is
/// split.
#[derive(Clone, Debug)]
pub struct Checksum64 {
    h: u64,
    /// The length declared to [`new`](Checksum64::new).
    len: u64,
    /// Bytes fed so far; `seen % 8` of them wait in `pending`.
    seen: u64,
    pending: [u8; 8],
}

impl Checksum64 {
    /// Starts a checksum over exactly `total_len` bytes.
    pub fn new(total_len: u64) -> Self {
        Checksum64 {
            h: SEED ^ total_len.wrapping_mul(M1),
            len: total_len,
            seen: 0,
            pending: [0; 8],
        }
    }

    /// Feeds the next `bytes` of the input (any split, empty included).
    pub fn update(&mut self, mut bytes: &[u8]) {
        let held = (self.seen % 8) as usize;
        self.seen += bytes.len() as u64;
        if held > 0 {
            let take = (8 - held).min(bytes.len());
            self.pending[held..held + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if held + take < 8 {
                return;
            }
            self.h = absorb(self.h, u64::from_le_bytes(self.pending));
        }
        let mut lanes = bytes.chunks_exact(8);
        for lane in &mut lanes {
            let v = u64::from_le_bytes(lane.try_into().expect("chunks_exact yields 8-byte lanes"));
            self.h = absorb(self.h, v);
        }
        let tail = lanes.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
    }

    /// The checksum of everything fed.
    ///
    /// # Panics
    /// Panics if the bytes fed do not add up to the declared length: a
    /// frame streamed short or long is a writer bug, not a checksum.
    pub fn finish(self) -> u64 {
        assert_eq!(
            self.seen, self.len,
            "Checksum64 was declared {} bytes and fed {}",
            self.len, self.seen
        );
        let mut h = self.h;
        let held = (self.seen % 8) as usize;
        if held > 0 {
            let mut pad = [0u8; 8];
            pad[..held].copy_from_slice(&self.pending[..held]);
            h = absorb(h, u64::from_le_bytes(pad));
        }
        mix(h ^ self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// The checksum as it was written before the streaming form: the
    /// reference the streamed and one-shot values are held to.
    fn reference(bytes: &[u8]) -> u64 {
        let mut h = SEED ^ (bytes.len() as u64).wrapping_mul(M1);
        let mut chunks = bytes.chunks_exact(8);
        for lane in &mut chunks {
            h = absorb(h, u64::from_le_bytes(lane.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut pad = [0u8; 8];
            pad[..tail.len()].copy_from_slice(tail);
            h = absorb(h, u64::from_le_bytes(pad));
        }
        mix(h ^ bytes.len() as u64)
    }

    fn streamed(bytes: &[u8], cuts: &[usize]) -> u64 {
        let mut c = Checksum64::new(bytes.len() as u64);
        let mut at = 0;
        for &cut in cuts {
            c.update(&bytes[at..cut]);
            at = cut;
        }
        c.update(&bytes[at..]);
        c.finish()
    }

    #[test]
    fn checksum_streamed_equals_one_shot_at_every_split() {
        // Every single split point of every length up to three lanes:
        // each offset inside a lane, and empty pieces at both ends.
        let bytes: Vec<u8> = (0u8..24).map(|i| i.wrapping_mul(91) ^ 0x5A).collect();
        for len in 0..=bytes.len() {
            let input = &bytes[..len];
            assert_eq!(checksum64(input), reference(input), "one-shot, len {len}");
            for cut in 0..=len {
                assert_eq!(
                    streamed(input, &[cut]),
                    reference(input),
                    "len {len}, cut {cut}"
                );
            }
        }
        // Random inputs of 0–300 bytes cut at random points; repeated
        // cut points feed empty updates.
        let mut rng = Rng::seed_from_u64(0xC4EC5);
        for round in 0..2_000 {
            let len = rng.gen_range(0..301);
            let input: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..len + 1))
                .collect();
            cuts.sort_unstable();
            assert_eq!(
                streamed(&input, &cuts),
                reference(&input),
                "round {round}: len {len}, cuts {cuts:?}"
            );
            assert_eq!(checksum64(&input), reference(&input), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "declared 10 bytes and fed 9")]
    fn checksum_finish_short_of_the_declared_length_panics() {
        let mut c = Checksum64::new(10);
        c.update(&[7; 9]);
        c.finish();
    }

    #[test]
    #[should_panic(expected = "declared 10 bytes and fed 11")]
    fn checksum_finish_past_the_declared_length_panics() {
        let mut c = Checksum64::new(10);
        c.update(&[7; 4]);
        c.update(&[7; 7]);
        c.finish();
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let a = checksum64(b"write-ahead");
        assert_eq!(a, checksum64(b"write-ahead"));
        assert_ne!(a, checksum64(b"write-ahead!"));
        assert_ne!(a, checksum64(b"write-ahEad"));
        assert_ne!(checksum64(b""), 0, "empty input must not hash to zero");
    }

    #[test]
    fn length_extension_padding_is_distinguished() {
        // Zero-padding the tail must not collide with explicit zeros:
        // the length factors into both the seed and the finalizer.
        assert_ne!(checksum64(b"a"), checksum64(b"a\0"));
        assert_ne!(checksum64(b"a\0\0\0\0\0\0\0"), checksum64(b"a"));
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 16]));
        assert_ne!(checksum64(&[]), checksum64(&[0u8; 8]));
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Exhaustive over a frame-sized buffer: the recovery rule
        // truncates on checksum mismatch, so any one-bit corruption
        // (the injected fault family) must be visible.
        let mut buf: Vec<u8> = (0u8..=63).map(|i| i.wrapping_mul(37)).collect();
        let clean = checksum64(&buf);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(
                    checksum64(&buf),
                    clean,
                    "flip at byte {byte} bit {bit} went undetected"
                );
                buf[byte] ^= 1 << bit;
            }
        }
        assert_eq!(checksum64(&buf), clean, "flips must have been restored");
    }

    #[test]
    fn lane_order_matters() {
        let ab = checksum64(b"AAAAAAAABBBBBBBB");
        let ba = checksum64(b"BBBBBBBBAAAAAAAA");
        assert_ne!(ab, ba, "swapped lanes must not collide");
    }
}
