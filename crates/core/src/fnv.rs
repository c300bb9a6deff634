//! FNV-1a, 64-bit: the workspace's one stable content hash.
//!
//! Lattice descriptor fingerprints, the driver's scheme-cache keys, the
//! scheme store's frame checksums and the gateway's routing ring all hash
//! with [`Fnv64`], each under its own domain tag. Unlike `DefaultHasher`
//! (randomly keyed) or [`crate::fxhash`] (tuned for in-process tables),
//! its output is fixed across runs, processes and platforms, so it can key
//! what is written to disk or sent between processes. Its methods are
//! `#[inline]`: the driver and the gateway call them once per hashed
//! field from other crates, on every request's fingerprint.

/// FNV-1a, 64-bit: small, dependency-free, and stable across platforms.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher, seeded with a domain tag so different fingerprint
    /// kinds never collide structurally.
    #[inline]
    pub fn new(domain: &str) -> Fnv64 {
        let mut h = Fnv64(Self::OFFSET);
        h.write(domain.as_bytes());
        h
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a string with a length prefix (prevents concatenation
    /// ambiguity between adjacent fields).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Absorbs a byte slice a word at a time — one xor-multiply round per
    /// 8 bytes instead of per byte, with the length absorbed first so
    /// the zero-padded tail cannot alias a longer input. Roughly 8× the
    /// throughput of [`Fnv64::write`]; used for the scheme store's frame
    /// checksums and for the bulk text fields of the driver's content
    /// fingerprints (constraint-set renderings run to hundreds of bytes
    /// per scheme).
    /// Not interchangeable with `write` — the two produce different
    /// hashes for the same bytes.
    #[inline]
    pub fn write_wide(&mut self, bytes: &[u8]) {
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 ^= u64::from_le_bytes(c.try_into().unwrap());
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.0 ^= u64::from_le_bytes(tail);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The accumulated hash.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv64::new("t");
        a.write_str("x");
        a.write_str("y");
        let mut b = Fnv64::new("t");
        b.write_str("x");
        b.write_str("y");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new("t");
        c.write_str("y");
        c.write_str("x");
        assert_ne!(a.finish(), c.finish());
        // Length prefixing: ("ab","c") ≠ ("a","bc").
        let mut d = Fnv64::new("t");
        d.write_str("ab");
        d.write_str("c");
        let mut e = Fnv64::new("t");
        e.write_str("a");
        e.write_str("bc");
        assert_ne!(d.finish(), e.finish());
    }
}
