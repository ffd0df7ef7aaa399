//! Open-addressing hash accumulator for the mid-bin numeric pass.
//!
//! Mid-binned rows reduce their products through a shared-memory hash
//! table instead of the global sort (the cuSPARSE/OpSparse strategy for
//! rows that fit in a CTA). The simulator uses this host-side table for
//! two things: the symbolic phase sizes it from the row's *output*
//! nonzeros (known exactly after the pattern is built — the progressive
//! sizing the symbolic/numeric split buys), and the measured probe count
//! feeds the mid-bin charge kernel, so the simulated cost reflects the
//! actual clustering behaviour of each matrix rather than a constant.

/// Power-of-two open-addressing table with linear probing and an
/// accumulate-on-collision insert, mirroring the shared-memory tables of
/// GPU hash SpGEMM kernels. Keys are column indices; `u64::MAX` is the
/// empty sentinel.
#[derive(Debug, Clone)]
pub struct HashAccumulator {
    keys: Vec<u64>,
    vals: Vec<f64>,
    mask: usize,
    len: usize,
    probes: u64,
}

const EMPTY: u64 = u64::MAX;

/// Fibonacci multiplicative hash — the usual GPU choice: one multiply,
/// one shift, good spread for clustered column indices.
#[inline]
fn spread(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

impl HashAccumulator {
    /// Table sized for `n` distinct keys: the next power of two at or
    /// above `2n` (load factor <= 0.5), minimum 2 slots.
    pub fn with_capacity(n: usize) -> HashAccumulator {
        let slots = (2 * n.max(1)).next_power_of_two();
        HashAccumulator {
            keys: vec![EMPTY; slots],
            vals: vec![0.0; slots],
            mask: slots - 1,
            len: 0,
            probes: 0,
        }
    }

    /// Empty the table and size it for `n` distinct keys, as
    /// [`HashAccumulator::with_capacity`] would, reusing the allocation:
    /// probes from here on count exactly as in a fresh table.
    pub fn reset(&mut self, n: usize) {
        let slots = (2 * n.max(1)).next_power_of_two();
        self.keys.clear();
        self.keys.resize(slots, EMPTY);
        self.vals.clear();
        self.vals.resize(slots, 0.0);
        self.mask = slots - 1;
        self.len = 0;
        self.probes = 0;
    }

    /// Add `v` to the entry for `key`, inserting it if absent. Counts one
    /// probe per slot inspected (the shared-memory traffic of the kernel).
    ///
    /// # Panics
    /// Panics if the table is full and `key` is absent (the symbolic
    /// phase sizes tables so this cannot happen for planned rows).
    pub fn accumulate(&mut self, key: u64, v: f64) {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        let mut i = spread(key, self.mask);
        for _ in 0..=self.mask {
            self.probes += 1;
            if self.keys[i] == key {
                self.vals[i] += v;
                return;
            }
            if self.keys[i] == EMPTY {
                self.keys[i] = key;
                self.vals[i] = v;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
        panic!("hash accumulator overflow: {} distinct keys", self.len);
    }

    /// Distinct keys inserted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots inspected across all accumulates since construction
    /// (or the last [`HashAccumulator::clear`]).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Reset to empty, keeping the allocation, and zero the probe count.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.vals.fill(0.0);
        self.len = 0;
        self.probes = 0;
    }

    /// Drain the table's `(key, value)` pairs in ascending key order into
    /// `out` (appended), as the kernel's final sort-and-write would.
    pub fn drain_sorted(&mut self, out: &mut Vec<(u64, f64)>) {
        let start = out.len();
        for i in 0..self.keys.len() {
            if self.keys[i] != EMPTY {
                out.push((self.keys[i], self.vals[i]));
            }
        }
        out[start..].sort_unstable_by_key(|&(k, _)| k);
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_duplicates_and_drains_sorted() {
        let mut h = HashAccumulator::with_capacity(4);
        h.accumulate(7, 1.0);
        h.accumulate(3, 2.0);
        h.accumulate(7, 0.5);
        h.accumulate(11, 4.0);
        assert_eq!(h.len(), 3);
        let mut out = Vec::new();
        h.drain_sorted(&mut out);
        assert_eq!(out, vec![(3, 2.0), (7, 1.5), (11, 4.0)]);
        assert!(h.is_empty());
        assert_eq!(h.probes(), 0, "drain resets probe count");
    }

    #[test]
    fn probe_count_grows_with_collisions() {
        // Every insert inspects at least one slot, collisions more.
        let mut h = HashAccumulator::with_capacity(64);
        for k in 0..64u64 {
            h.accumulate(k, 1.0);
        }
        assert!(h.probes() >= 64);
        assert_eq!(h.len(), 64);
    }

    #[test]
    fn capacity_holds_exactly_n_distinct_keys() {
        // Load factor <= 0.5 must never overflow at the sized count.
        for n in 1..100usize {
            let mut h = HashAccumulator::with_capacity(n);
            for k in 0..n as u64 {
                h.accumulate(k * 1_000_003, 1.0);
            }
            assert_eq!(h.len(), n);
        }
    }

    #[test]
    fn clear_reuses_the_allocation() {
        let mut h = HashAccumulator::with_capacity(8);
        h.accumulate(5, 1.0);
        h.clear();
        assert!(h.is_empty());
        h.accumulate(5, 2.0);
        let mut out = Vec::new();
        h.drain_sorted(&mut out);
        assert_eq!(out, vec![(5, 2.0)]);
    }

    #[test]
    fn a_reset_table_probes_like_a_fresh_one() {
        let keys = [5u64, 9, 5, 1 << 40, 77, 9, 3];
        let mut reused = HashAccumulator::with_capacity(100);
        for n in [5, 6, 9, 40] {
            let mut fresh = HashAccumulator::with_capacity(n);
            reused.reset(n);
            for &k in &keys {
                fresh.accumulate(k, 1.0);
                reused.accumulate(k, 1.0);
            }
            assert_eq!(
                (reused.probes(), reused.len()),
                (fresh.probes(), fresh.len())
            );
        }
    }
}
