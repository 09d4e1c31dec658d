//! Open-addressed id tables and the flat key interner built on them.
//!
//! An id table is a power-of-two `Vec<u32>` of slots holding dense row
//! ids, probed linearly from a key's hash, with `u32::MAX` marking a
//! free slot. The rows themselves live elsewhere — in a relation's
//! symbol columns, or in a [`KeyTable`]'s value arena — and a probe
//! compares against them by id, so no key is ever boxed or copied into
//! the table.
//!
//! [`KeyTable`] interns fixed-width [`Value`] keys in first-seen order:
//! the join's distinct outputs and the min-cut network's boundary nodes
//! both intern through it.

use crate::value::Value;

/// Empty-slot sentinel of the id tables. Never a valid id.
pub(crate) const EMPTY: u32 = u32::MAX;

/// Id table load limit: grow when `len * LOAD_DEN >= capacity * LOAD_NUM`.
pub(crate) const LOAD_NUM: usize = 7;
pub(crate) const LOAD_DEN: usize = 8;

/// Probes an id table for a row satisfying `eq`.
pub(crate) fn probe_slots(slots: &[u32], h: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
    if slots.is_empty() {
        return None;
    }
    let mask = slots.len() - 1;
    let mut i = (h as usize) & mask;
    loop {
        let e = slots[i];
        if e == EMPTY {
            return None;
        }
        if eq(e) {
            return Some(e);
        }
        i = (i + 1) & mask;
    }
}

/// Places `row` at the first free slot of its probe sequence.
pub(crate) fn place(slots: &mut [u32], h: u64, row: u32) {
    let mask = slots.len() - 1;
    let mut i = (h as usize) & mask;
    while slots[i] != EMPTY {
        i = (i + 1) & mask;
    }
    slots[i] = row;
}

/// Word-at-a-time multiplicative hash of a value key, finished with the
/// murmur3 avalanche so the low bits the slot mask keeps depend on every
/// input bit.
#[inline]
fn hash_key(key: &[Value]) -> u64 {
    let mut h = 0u64;
    for &v in key {
        h = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// An interner of `stride`-wide value keys: each distinct key gets the
/// next dense id, in first-seen order. Keys are stored back to back in
/// one arena and found through an open-addressed id table, so interning
/// allocates only when the arena or the table grows.
#[derive(Clone, Debug, Default)]
pub struct KeyTable {
    stride: usize,
    len: usize,
    /// Key `id` is `keys[id * stride..(id + 1) * stride]`.
    keys: Vec<Value>,
    slots: Vec<u32>,
}

impl KeyTable {
    /// An empty table of keys with `stride` values each.
    pub fn new(stride: usize) -> Self {
        KeyTable {
            stride,
            ..Default::default()
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key with id `id`.
    #[inline]
    pub fn key(&self, id: u32) -> &[Value] {
        let lo = id as usize * self.stride;
        &self.keys[lo..lo + self.stride]
    }

    /// Keys in id (first-seen) order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| {
            let lo = i * self.stride;
            &self.keys[lo..lo + self.stride]
        })
    }

    /// The key arena: key `id` at `id * stride..(id + 1) * stride`.
    pub fn into_keys(self) -> Vec<Value> {
        self.keys
    }

    /// The id of `key`, interning it first if new; the flag reports
    /// whether it was.
    pub fn intern(&mut self, key: &[Value]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.stride, "key width");
        let h = hash_key(key);
        if let Some(id) = probe_slots(&self.slots, h, |e| self.key(e) == key) {
            return (id, false);
        }
        let id = crate::ids::dense_id(self.len, "interned keys");
        assert!(
            id != EMPTY,
            "dense u32 id space exhausted allocating interned keys"
        );
        self.keys.extend_from_slice(key);
        self.len += 1;
        if self.len * LOAD_DEN >= self.slots.len() * LOAD_NUM {
            self.rehash((self.len * 2).next_power_of_two().max(16));
        } else {
            place(&mut self.slots, h, id);
        }
        (id, true)
    }

    /// Rebuilds the id table at `capacity` (a power of two) from the
    /// arena.
    fn rehash(&mut self, capacity: usize) {
        let mut slots = vec![EMPTY; capacity];
        for (key, id) in self.keys().zip(0u32..) {
            place(&mut slots, hash_key(key), id);
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_in_first_seen_order_across_growth() {
        let mut t = KeyTable::new(3);
        let key = |i: u64| [7, i / 3, i % 1000];
        for i in 0..5_000u64 {
            assert_eq!(t.intern(&key(i)), (i as u32, true));
            assert_eq!(t.intern(&key(i)), (i as u32, false));
        }
        assert_eq!(t.len(), 5_000);
        for i in 0..5_000u64 {
            assert_eq!(t.intern(&key(i)), (i as u32, false));
            assert_eq!(t.key(i as u32), &key(i));
        }
        assert!(t.keys().zip(0..).all(|(k, i)| k == key(i)));
    }

    #[test]
    fn zero_width_keys_intern_once() {
        let mut t = KeyTable::new(0);
        assert!(t.is_empty());
        assert_eq!(t.intern(&[]), (0, true));
        assert_eq!(t.intern(&[]), (0, false));
        assert_eq!(t.keys().collect::<Vec<_>>(), vec![&[] as &[Value]]);
    }
}
