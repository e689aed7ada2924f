//! Flat, sparsely allocated main memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Bytes per allocation page — the granularity of [`MainMemory::pages`]
/// and [`MainMemory::load_page`] (snapshot capture/restore).
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// Multiplicative (Fibonacci) hasher for small, attacker-free integer
/// keys: page numbers here (every simulated memory access pays one
/// lookup — SipHash would dominate the cost of the functional
/// executor's loads and stores) and loop IDs in the DSA cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct U32Hasher(u64);

/// A `HashMap` keyed by `u32` through [`U32Hasher`].
pub type U32Map<V> = HashMap<u32, V, BuildHasherDefault<U32Hasher>>;

impl Hasher for U32Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the high (well-mixed) bits into the low bits the table
        // indexes with.
        self.0 = h ^ (h >> 32);
    }
}

type PageMap = U32Map<Box<[u8; PAGE_SIZE]>>;

/// Byte-addressable main memory with a 32-bit address space, allocated
/// lazily in 4 KB pages. All multi-byte accesses are little-endian and may
/// straddle page boundaries.
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: PageMap,
}

#[inline]
fn split(addr: u32) -> (u32, usize) {
    (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_SIZE - 1))
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        let (page, off) = split(addr);
        match self.pages.get(&page) {
            Some(p) => p[off],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    #[inline]
    fn page_mut(&mut self, page: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `N` little-endian bytes in one page lookup when the access
    /// stays inside a page (the overwhelmingly common case — aligned
    /// accesses never straddle), byte-by-byte otherwise.
    #[inline]
    fn read_n<const N: usize>(&self, addr: u32) -> [u8; N] {
        let (page, off) = split(addr);
        if off + N <= PAGE_SIZE {
            match self.pages.get(&page) {
                Some(p) => {
                    let mut out = [0u8; N];
                    out.copy_from_slice(&p[off..off + N]);
                    out
                }
                None => [0u8; N],
            }
        } else {
            core::array::from_fn(|i| self.read_u8(addr.wrapping_add(i as u32)))
        }
    }

    /// Writes `N` little-endian bytes in one page lookup when the access
    /// stays inside a page, byte-by-byte otherwise.
    #[inline]
    fn write_n<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let (page, off) = split(addr);
        if off + N <= PAGE_SIZE {
            self.page_mut(page)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_n(addr))
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_n(addr, value.to_le_bytes());
    }

    /// Reads a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_n(addr))
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_n(addr, value.to_le_bytes());
    }

    /// Reads a 32-bit value as a float (bit reinterpretation).
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes a float by its bit pattern.
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads 16 contiguous bytes (one vector register).
    pub fn read_vec128(&self, addr: u32) -> [u8; 16] {
        self.read_n(addr)
    }

    /// Writes 16 contiguous bytes (one vector register).
    pub fn write_vec128(&mut self, addr: u32, bytes: [u8; 16]) {
        self.write_n(addr, bytes);
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i as u32))).collect()
    }

    /// Number of pages that have been touched by a write.
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }

    /// Every allocated page as `(page number, contents)`, sorted by page
    /// number — the canonical order used by snapshot serialization, so
    /// two memories with identical contents always serialize to
    /// identical bytes regardless of allocation order.
    pub fn pages(&self) -> Vec<(u32, &[u8; PAGE_BYTES])> {
        let mut pages: Vec<(u32, &[u8; PAGE_BYTES])> =
            self.pages.iter().map(|(&k, p)| (k, &**p)).collect();
        pages.sort_unstable_by_key(|&(k, _)| k);
        pages
    }

    /// Installs one full page (snapshot restore). Replaces any existing
    /// contents of that page.
    pub fn load_page(&mut self, page: u32, bytes: &[u8; PAGE_BYTES]) {
        self.pages.insert(page, Box::new(*bytes));
    }

    /// A stable 64-bit digest of all allocated contents, used by tests to
    /// compare final memory states between scalar and vectorised runs.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (page number, page bytes) in page-number order.
        let mut keys: Vec<_> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for k in keys {
            for b in k.to_le_bytes() {
                mix(b);
            }
            for &b in self.pages[&k].iter() {
                mix(b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = MainMemory::new();
        assert_eq!(m.read_u32(0xdead_beef), 0);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = MainMemory::new();
        m.write_u32(0x100, 0x1234_5678);
        assert_eq!(m.read_u8(0x100), 0x78);
        assert_eq!(m.read_u8(0x103), 0x12);
        assert_eq!(m.read_u16(0x100), 0x5678);
        assert_eq!(m.read_u32(0x100), 0x1234_5678);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        let addr = (1 << 12) - 2; // straddles page 0 / page 1
        m.write_u32(addr, 0xA1B2_C3D4);
        assert_eq!(m.read_u32(addr), 0xA1B2_C3D4);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn float_roundtrip() {
        let mut m = MainMemory::new();
        m.write_f32(64, 3.25);
        assert_eq!(m.read_f32(64), 3.25);
    }

    #[test]
    fn vec128_roundtrip() {
        let mut m = MainMemory::new();
        let data: [u8; 16] = core::array::from_fn(|i| i as u8);
        m.write_vec128(4094, data); // straddles pages
        assert_eq!(m.read_vec128(4094), data);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = MainMemory::new();
        m.write_bytes(10, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(10, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn pages_roundtrip_sorted() {
        let mut m = MainMemory::new();
        m.write_u32(5 << 12, 0xAA); // page 5 first
        m.write_u32(1 << 12, 0xBB);
        let pages = m.pages();
        assert_eq!(pages.len(), 2);
        assert!(pages[0].0 < pages[1].0, "pages are sorted");
        let mut copy = MainMemory::new();
        for (k, p) in pages {
            copy.load_page(k, p);
        }
        assert_eq!(copy.digest(), m.digest());
        assert_eq!(copy.read_u32(5 << 12), 0xAA);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        a.write_u32(0, 7);
        b.write_u32(0, 7);
        assert_eq!(a.digest(), b.digest());
        b.write_u8(1000, 1);
        assert_ne!(a.digest(), b.digest());
    }
}
