//! A minimal byte read/write cursor replacing the `bytes` crate.
//!
//! The run-file codec ([`crate::block`]) needs exactly three things:
//! append little-endian primitives to a growable buffer, hand the
//! accumulated bytes to `Write::write_all`, and consume little-endian
//! primitives from the front. [`ByteBuf`] provides that in ~100 lines: a
//! `Vec<u8>` plus a read cursor. Consuming reads
//! advance the cursor without shifting bytes; [`ByteBuf::clear`] and the
//! writers reclaim the dead prefix, so a steady fill/drain cycle does not
//! grow the allocation.

/// A growable byte buffer that is written at the back and read (consumed)
/// at the front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteBuf {
    data: Vec<u8>,
    /// Bytes before `head` have been consumed.
    head: usize,
}

impl ByteBuf {
    /// An empty buffer.
    pub fn new() -> ByteBuf {
        ByteBuf::default()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ByteBuf {
        ByteBuf {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// A buffer whose unread content is `bytes`.
    pub fn from_vec(bytes: Vec<u8>) -> ByteBuf {
        ByteBuf {
            data: bytes,
            head: 0,
        }
    }

    /// Number of unread bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unread bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Discards all content (keeps the allocation).
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Drops the consumed prefix so appended bytes reuse its space.
    fn compact(&mut self) {
        if self.head > 0 {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.compact();
        self.data.extend_from_slice(bytes);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Consumes `out.len()` bytes into `out`.
    ///
    /// # Panics
    /// Panics if fewer than `out.len()` bytes are unread.
    pub fn copy_to_slice(&mut self, out: &mut [u8]) {
        assert!(
            out.len() <= self.len(),
            "read of {} bytes from a buffer holding {}",
            out.len(),
            self.len()
        );
        out.copy_from_slice(&self.data[self.head..self.head + out.len()]);
        self.head += out.len();
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut bytes = [0u8; N];
        self.copy_to_slice(&mut bytes);
        bytes
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Panics
    /// Panics if fewer than 4 bytes are unread.
    pub fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Panics
    /// Panics if fewer than 8 bytes are unread.
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    /// Consumes a little-endian `f64`.
    ///
    /// # Panics
    /// Panics if fewer than 8 bytes are unread.
    pub fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(0x0123_4567_89ab_cdef);
        buf.put_f64_le(-2.5);
        buf.put_slice(b"tail");
        assert_eq!(buf.len(), 4 + 8 + 8 + 4);
        assert_eq!(buf.get_u32_le(), 0xdead_beef);
        assert_eq!(buf.get_u64_le(), 0x0123_4567_89ab_cdef);
        assert_eq!(buf.get_f64_le(), -2.5);
        let mut tail = [0u8; 4];
        buf.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"tail");
        assert!(buf.is_empty());
    }

    #[test]
    fn encoding_is_little_endian_on_the_wire() {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(1);
        assert_eq!(buf.as_slice(), &[1, 0, 0, 0]);
    }

    #[test]
    fn special_floats_round_trip() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN,
            1e-300,
        ] {
            let mut buf = ByteBuf::new();
            buf.put_f64_le(v);
            assert_eq!(buf.get_f64_le().to_bits(), v.to_bits());
        }
        let mut buf = ByteBuf::new();
        buf.put_f64_le(f64::NAN);
        assert!(buf.get_f64_le().is_nan());
    }

    #[test]
    fn interleaved_fill_and_drain_does_not_grow() {
        let mut buf = ByteBuf::with_capacity(64);
        for round in 0..1_000u64 {
            buf.put_u64_le(round);
            buf.put_u64_le(round + 1);
            assert_eq!(buf.get_u64_le(), round);
            assert_eq!(buf.get_u64_le(), round + 1);
        }
        assert!(buf.is_empty());
        assert!(
            buf.data.capacity() <= 64,
            "steady-state cycle grew the allocation to {}",
            buf.data.capacity()
        );
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut buf = ByteBuf::new();
        buf.put_slice(&[0u8; 256]);
        let cap = buf.data.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.data.capacity(), cap);
    }

    #[test]
    fn from_vec_exposes_content() {
        let mut buf = ByteBuf::from_vec(vec![2, 0, 0, 0]);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.get_u32_le(), 2);
    }

    #[test]
    #[should_panic(expected = "read of 4 bytes")]
    fn overread_panics() {
        let mut buf = ByteBuf::from_vec(vec![1, 2]);
        let _ = buf.get_u32_le();
    }
}
