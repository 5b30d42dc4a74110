//! Identifier types used across the scheduler.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

pub use bm_device::WorkerId;

/// A map keyed by identifiers the server assigns itself (request, task
/// and connection counters, cell types, workers), hashed by
/// [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A seedless integer hasher for server-assigned identifiers: each
/// integer written is folded in with one rotate, xor and multiply (the
/// Fx hash). A client chooses none of these keys, so the collision
/// resistance a seeded SipHash buys against crafted keys is not needed
/// here, and its cost per lookup is.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Identifier of one inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Identifier of one batched task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Global identifier of one subgraph (unique across requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubgraphId(pub u64);

impl fmt::Display for SubgraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sg{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_maps_keep_distinct_keys_apart() {
        let mut m: IdMap<RequestId, u64> = IdMap::default();
        for i in 0..1000 {
            m.insert(RequestId(i << 40 | i), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&RequestId(i << 40 | i)] == i));
    }

    #[test]
    fn displays() {
        assert_eq!(RequestId(1).to_string(), "req1");
        assert_eq!(TaskId(2).to_string(), "task2");
        assert_eq!(SubgraphId(3).to_string(), "sg3");
    }
}
