//! A deterministic digest over simulated outputs (64-bit FNV-1a).
//!
//! Every value goes in as explicit little-endian bytes, so the digest
//! depends only on the simulated results, never on `Debug` formatting or
//! hash-map order.

use kyoto::sim::pmc::PmcSet;

/// Incremental FNV-1a over the bytes fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Feeds a string, length-prefixed so adjacent strings cannot alias.
    pub fn str(&mut self, text: &str) -> &mut Self {
        self.u64(text.len() as u64).bytes(text.as_bytes())
    }

    /// Feeds every counter of a PMC set.
    pub fn pmcs(&mut self, pmcs: &PmcSet) -> &mut Self {
        self.u64(pmcs.instructions)
            .u64(pmcs.unhalted_core_cycles)
            .u64(pmcs.memory_accesses)
            .u64(pmcs.ilc_misses)
            .u64(pmcs.llc_references)
            .u64(pmcs.llc_misses)
            .u64(pmcs.remote_accesses)
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::default().bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn strings_are_length_prefixed() {
        let ab_c = Digest::default().str("ab").str("c").value();
        let a_bc = Digest::default().str("a").str("bc").value();
        assert_ne!(ab_c, a_bc);
    }
}
