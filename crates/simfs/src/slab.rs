//! A map keyed by numbers a counter hands out, stored by number.
//!
//! Inode numbers and file descriptors are issued in increasing order
//! and never reused, so the map that resolves them needs no hashing:
//! the number is the index. [`Slab`] keeps the slots in chunks of 64
//! numbers, allocated when the first number of a chunk is inserted and
//! freed when its last one is removed, so memory follows the live
//! entries rather than every number ever issued. The one exception is
//! the highest chunk, which the counter is still filling: it stays
//! while empty, until the counter moves past it, so a create and unlink
//! in turn does not allocate and free a chunk each time.

/// Numbers per chunk.
const CHUNK: usize = 64;

/// A map from counter-issued numbers to values, indexed by number.
///
/// Chunk `base + c` lives at `chunks[c]`; a lookup is one division, two
/// bounds checks and one pointer hop. The directory itself costs 16
/// bytes per 64 numbers from the lowest live chunk to the highest chunk
/// ever used: it drops leading chunks as they empty, and keeps the gaps
/// above them, where a counter that only moves up would otherwise
/// shrink it and grow it back on every insert.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    chunks: Vec<Option<Chunk<T>>>,
    /// Chunk number of `chunks[0]`.
    base: u64,
    /// Live entries.
    len: usize,
}

#[derive(Debug, Clone)]
struct Chunk<T> {
    /// `CHUNK` slots.
    slots: Box<[Option<T>]>,
    live: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            base: 0,
            len: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Position of `key`'s chunk in the directory (past its end, or
    /// wrapped far past it, when the chunk is not there) and `key`'s
    /// slot in that chunk.
    #[inline]
    fn locate(&self, key: u64) -> (usize, usize) {
        let chunk = (key / CHUNK as u64).wrapping_sub(self.base);
        let slot = (key % CHUNK as u64) as usize;
        (usize::try_from(chunk).unwrap_or(usize::MAX), slot)
    }

    /// The value under `key`.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&T> {
        let (c, s) = self.locate(key);
        self.chunks.get(c)?.as_ref()?.slots[s].as_ref()
    }

    /// The value under `key`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (c, s) = self.locate(key);
        self.chunks.get_mut(c)?.as_mut()?.slots[s].as_mut()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let chunk = key / CHUNK as u64;
        let top = self.chunks.len();
        if chunk >= self.base + top as u64
            && matches!(self.chunks.last(), Some(Some(last)) if last.live == 0)
        {
            // Past the top chunk, which stayed only for the counter.
            self.free_chunk(top - 1);
        }
        if self.chunks.is_empty() {
            self.base = chunk;
        } else if chunk < self.base {
            let missing = (self.base - chunk) as usize;
            self.chunks
                .splice(0..0, std::iter::repeat_with(|| None).take(missing));
            self.base = chunk;
        }
        let (c, s) = self.locate(key);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| {
            // Built in place on the heap: only the empty tags are
            // written.
            Chunk {
                slots: std::iter::repeat_with(|| None).take(CHUNK).collect(),
                live: 0,
            }
        });
        let old = chunk.slots[s].replace(value);
        if old.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value under `key`, freeing its chunk if
    /// that was the chunk's last value.
    pub(crate) fn remove(&mut self, key: u64) -> Option<T> {
        let (c, s) = self.locate(key);
        let chunk = self.chunks.get_mut(c)?.as_mut()?;
        let old = chunk.slots[s].take()?;
        chunk.live -= 1;
        self.len -= 1;
        if chunk.live == 0 && c + 1 < self.chunks.len() {
            self.free_chunk(c);
        }
        Some(old)
    }

    /// Frees the chunk at `c`, and drops the directory's leading empty
    /// entries if it was the first.
    fn free_chunk(&mut self, c: usize) {
        self.chunks[c] = None;
        if c == 0 {
            let leading = self.chunks.iter().take_while(|c| c.is_none()).count();
            self.chunks.drain(..leading);
            self.base += leading as u64;
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every live value, in key order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .flatten()
            .flat_map(|chunk| chunk.slots.iter().flatten())
    }

    /// Chunks currently allocated: those holding entries, and the
    /// highest one if it is empty.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_simcore::rng::Rng;
    use std::collections::BTreeMap;

    /// Seeded histories of inserts (mostly at a rising counter, some at
    /// random earlier or later numbers), replacements and removals,
    /// checked against a `BTreeMap` after every step: lookups, the
    /// returned values, the length and the key-ordered values agree,
    /// and the allocated chunks are those holding a live key plus at
    /// most the highest chunk used, empty. A failure names its seed.
    #[test]
    fn slab_matches_a_map() {
        for seed in 0..300 {
            let mut rng = Rng::new(seed);
            let mut slab = Slab::default();
            let mut map = BTreeMap::new();
            let mut next = rng.below(1000);
            for step in 0..1 + rng.below(400) {
                let key = match rng.below(4) {
                    0 => {
                        next += 1 + rng.below(3);
                        next
                    }
                    1 => next.saturating_sub(rng.below(300)),
                    2 => rng.below(next + 200),
                    _ => map
                        .keys()
                        .nth(rng.below(map.len() as u64 + 1) as usize)
                        .copied()
                        .unwrap_or(next),
                };
                if rng.below(3) == 0 {
                    assert_eq!(
                        slab.remove(key),
                        map.remove(&key),
                        "seed {seed} step {step}: remove {key}"
                    );
                } else {
                    assert_eq!(
                        slab.insert(key, step),
                        map.insert(key, step),
                        "seed {seed} step {step}: insert {key}"
                    );
                }
                let probe = rng.below(next + 200);
                assert_eq!(
                    slab.get(probe),
                    map.get(&probe),
                    "seed {seed} step {step}: get {probe}"
                );
                if let Some(v) = slab.get_mut(probe) {
                    *v += 1;
                    *map.get_mut(&probe).unwrap() += 1;
                }
                assert_eq!(slab.len(), map.len(), "seed {seed} step {step}: len");
                assert!(
                    slab.values().eq(map.values()),
                    "seed {seed} step {step}: values"
                );
                let live_chunks: std::collections::BTreeSet<u64> =
                    map.keys().map(|k| k / CHUNK as u64).collect();
                let empty: Vec<usize> = (0..slab.chunks.len())
                    .filter(|&c| slab.chunks[c].as_ref().is_some_and(|k| k.live == 0))
                    .collect();
                assert!(
                    empty.is_empty() || empty == [slab.chunks.len() - 1],
                    "seed {seed} step {step}: empty chunks {empty:?}"
                );
                assert_eq!(
                    slab.chunks(),
                    live_chunks.len() + empty.len(),
                    "seed {seed} step {step}: chunks"
                );
            }
        }
    }

    /// A counter with 100 live numbers behind it holds at most three
    /// chunks and a directory of three; once every number is gone only
    /// the empty chunk the counter was filling is left, and it goes as
    /// soon as the counter moves past it.
    #[test]
    fn a_counter_that_moves_on_leaves_one_empty_chunk() {
        let mut slab = Slab::default();
        for key in 3..10_003u64 {
            slab.insert(key, key);
            if key >= 3 + 100 {
                assert_eq!(slab.remove(key - 100), Some(key - 100));
            }
            assert!(slab.chunks() <= 3, "{} chunks at {key}", slab.chunks());
            assert!(slab.chunks.len() <= 3, "directory of {}", slab.chunks.len());
        }
        for key in 9_903..10_003u64 {
            slab.remove(key);
        }
        assert_eq!((slab.len(), slab.chunks(), slab.chunks.len()), (0, 1, 1));
        assert_eq!(slab.get(5), None);
        slab.insert(10_100, 0);
        assert_eq!((slab.len(), slab.chunks(), slab.chunks.len()), (1, 1, 1));
    }
}
