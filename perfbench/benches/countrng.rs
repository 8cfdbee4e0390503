//! A random-number generator adapter that counts the words drawn through
//! it, so the traced run can report how many draws each network phase
//! costs without touching the program's generators.

use rand::RngCore;

/// Forwards every call to `inner` and counts the calls.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R> CountingRng<R> {
    pub fn new(inner: R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Words drawn so far (64- and 32-bit draws count one each).
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    // Forwarded rather than left to the default, so that a generator
    // with its own 32-bit path yields the same stream through the
    // adapter.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn forwards_the_same_stream_and_counts() {
        let mut plain = StdRng::seed_from_u64(9);
        let mut counted = CountingRng::new(StdRng::seed_from_u64(9));
        for _ in 0..100 {
            assert_eq!(plain.next_u64(), counted.next_u64());
            assert_eq!(plain.next_u32(), counted.next_u32());
            assert_eq!(plain.gen_range(0..17usize), counted.gen_range(0..17usize));
        }
        assert!(counted.draws() >= 300);
    }
}
