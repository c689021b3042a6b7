//! MSB-first bit-level I/O for the pointerless wire format.

/// Writes bits MSB-first into a growing byte buffer.
///
/// Sensor radios transmit whole bytes; the encoding tracks its exact bit
/// length so that cost accounting (the decomposition threshold, Treecut
/// sizes) can work at bit granularity while messages are padded to bytes.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in `buf`.
    len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let byte = self.len / 8;
        if byte == self.buf.len() {
            self.buf.push(0);
        }
        if bit {
            self.buf[byte] |= 0x80 >> (self.len % 8);
        }
        self.len += 1;
    }

    /// Appends the low `count` bits of `value`, most significant first,
    /// packed a partial byte at a time (≤ 9 byte stores for 64 bits); the
    /// stream is the one a [`BitWriter::push_bit`] loop produces.
    ///
    /// # Panics
    /// Panics if `count > 64`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64);
        let mut rem = count;
        while rem > 0 {
            let byte = self.len / 8;
            if byte == self.buf.len() {
                self.buf.push(0);
            }
            let off = (self.len % 8) as u32;
            let take = (8 - off).min(rem);
            // The next `take` bits of `value`, MSB-first, aligned to the
            // free low positions of the current byte.
            let chunk = (value >> (rem - take)) & ((1u64 << take) - 1);
            self.buf[byte] |= (chunk << (8 - off - take)) as u8;
            self.len += take as usize;
            rem -= take;
        }
    }

    /// Appends `count` zero bits.
    pub fn push_zeros(&mut self, count: usize) {
        self.len += count;
        self.buf.resize(self.len.div_ceil(8), 0);
    }

    /// Sets the already-written bit at `pos` (for fields whose content is
    /// only known after later bits were appended).
    ///
    /// # Panics
    /// Panics if `pos` is not below [`BitWriter::len_bits`].
    #[inline]
    pub fn set_bit(&mut self, pos: usize) {
        assert!(pos < self.len, "bit {pos} not written yet");
        self.buf[pos / 8] |= 0x80 >> (pos % 8);
    }

    /// Number of bits written so far.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len
    }

    /// Finishes writing, returning the byte buffer (zero-padded) and the
    /// exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        (self.buf, self.len)
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Total readable bits (callers may bound below `buf.len() * 8`).
    len: usize,
}

impl<'a> BitReader<'a> {
    /// Reads all bits of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            len: buf.len() * 8,
        }
    }

    /// Reads only the first `len_bits` bits of `buf`.
    pub fn with_len(buf: &'a [u8], len_bits: usize) -> Self {
        debug_assert!(len_bits <= buf.len() * 8);
        Self {
            buf,
            pos: 0,
            len: len_bits,
        }
    }

    /// Reads one bit, or `None` at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.len {
            return None;
        }
        let bit = (self.buf[self.pos / 8] >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `count` bits MSB-first, gathered a partial byte at a time, or
    /// `None` (consuming nothing) if fewer remain.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Option<u64> {
        assert!(count <= 64);
        if self.pos + count as usize > self.len {
            return None;
        }
        let mut v = 0u64;
        let mut rem = count;
        while rem > 0 {
            let byte = u64::from(self.buf[self.pos / 8]);
            let off = (self.pos % 8) as u32;
            let take = (8 - off).min(rem);
            let chunk = (byte >> (8 - off - take)) & ((1u64 << take) - 1);
            v = (v << take) | chunk;
            self.pos += take as usize;
            rem -= take;
        }
        Some(v)
    }

    /// Skips `count` bits, or returns `None` (consuming nothing) if fewer
    /// remain.
    #[inline]
    pub fn skip(&mut self, count: usize) -> Option<()> {
        if count > self.remaining() {
            return None;
        }
        self.pos += count;
        Some(())
    }

    /// Bits consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let (bytes, len) = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::with_len(&bytes, len);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn roundtrip_multibit_values() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(0xDEADBEEF, 32);
        w.push_bits(0, 0);
        w.push_bits(u64::MAX, 64);
        let (bytes, len) = w.finish();
        let mut r = BitReader::with_len(&bytes, len);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(32), Some(0xDEADBEEF));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn set_bit_patches_written_bits() {
        let mut w = BitWriter::new();
        w.push_bits(0, 3);
        w.push_zeros(9);
        w.set_bit(0);
        w.set_bit(9);
        let (bytes, len) = w.finish();
        assert_eq!((bytes, len), (vec![0b1000_0000, 0b0100_0000], 12));
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.push_bits(0b1, 1);
        w.push_bits(0b0000000, 7);
        let (bytes, _) = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn read_past_end_is_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(1), None);
        // Partial reads don't consume on failure.
        let mut r2 = BitReader::with_len(&[0xFF], 4);
        assert_eq!(r2.read_bits(5), None);
        assert_eq!(r2.read_bits(4), Some(0xF));
    }

    #[test]
    fn packed_matches_bit_at_a_time() {
        // The packed paths must produce the exact stream a plain push_bit /
        // read_bit loop produces, at every alignment.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let ops: Vec<(u64, u32)> = (0..200).map(|_| (next(), (next() % 65) as u32)).collect();
        let mut packed = BitWriter::new();
        let mut bitwise = BitWriter::new();
        for &(v, c) in &ops {
            packed.push_bits(v, c);
            for i in (0..c).rev() {
                bitwise.push_bit((v >> i) & 1 == 1);
            }
        }
        assert_eq!(packed.len_bits(), bitwise.len_bits());
        let (pb, plen) = packed.finish();
        let (bb, _) = bitwise.finish();
        assert_eq!(pb, bb);
        let mut rp = BitReader::with_len(&pb, plen);
        let mut rb = BitReader::with_len(&bb, plen);
        for &(v, c) in &ops {
            let mut want = 0u64;
            for _ in 0..c {
                want = (want << 1) | u64::from(rb.read_bit().unwrap());
            }
            assert_eq!(rp.read_bits(c), Some(want));
            assert_eq!(
                want,
                if c == 0 {
                    0
                } else {
                    v & (u64::MAX >> (64 - c))
                }
            );
            assert_eq!(rp.position(), rb.position());
        }
    }

    #[test]
    fn position_tracking() {
        let mut r = BitReader::new(&[0xAA, 0x55]);
        r.read_bits(5);
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 11);
        assert_eq!(r.skip(12), None);
        assert_eq!(r.skip(3), Some(()));
        assert_eq!(r.read_bits(8), Some(0x55));
    }
}
