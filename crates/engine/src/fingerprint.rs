//! Thread-safe memoization of [`CsrMatrix::pattern_fingerprint`].
//!
//! The fingerprint is an O(nnz) FNV-1a hash; paying it on every submit
//! would dominate the steady-state submission path. The memo indexes by
//! `Arc` address so lookups are O(1), and the held `Weak` pins the
//! allocation (an `Arc`'s storage outlives its last `Weak`), so a live
//! address can never be reused by a different matrix; a failed upgrade
//! marks the entry stale. Inserts sweep stale entries once the map has
//! doubled since the last sweep, so it never holds more than twice the
//! live entries that sweep kept (or [`MIN_SWEEP_AT`]), at O(1) amortized
//! cost per insert, however the entries die.
//!
//! A matrix moving to a new allocation does not by itself cost a hash.
//! A value swap through `Arc::make_mut` lands the matrix at a new address
//! (the memo's own `Weak` forces the move), so
//! [`FingerprintCache::swap_values`] carries the known fingerprint to it
//! rather than rehashing the unchanged pattern. And a [`crate::Service`]
//! hands one memo to every shard engine, so the hash paid to route a
//! request is never paid again by the shard that serves it.
//!
//! Concurrency: the map sits behind an `RwLock`. The hot path is a read
//! lock (steady-state serving re-submits matrices the memo has already
//! seen), and the hash itself is computed outside any lock. Two threads
//! racing to insert the same matrix both compute the same `(address,
//! fingerprint)` pair, so whichever insert lands last is a no-op — the
//! memo is race-free and stable under concurrent submission from many
//! threads, which is what lets the sharded service fingerprint-route
//! requests without a global lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use mps_sparse::CsrMatrix;

/// Map size below which inserts never sweep.
pub(crate) const MIN_SWEEP_AT: usize = 16;

/// Concurrent `Arc`-address-indexed fingerprint memo.
#[derive(Default)]
pub struct FingerprintCache {
    memo: RwLock<Memo>,
    hashes: AtomicU64,
}

#[derive(Default)]
struct Memo {
    entries: HashMap<usize, (Weak<CsrMatrix>, u64)>,
    /// Entry count at which the next insert sweeps stale entries: twice
    /// the live entries the last sweep kept, and at least
    /// [`MIN_SWEEP_AT`].
    sweep_at: usize,
}

impl Memo {
    fn insert(&mut self, a: &Arc<CsrMatrix>, fp: u64) {
        if self.entries.len() >= self.sweep_at {
            self.entries.retain(|_, (w, _)| w.strong_count() > 0);
            self.sweep_at = (2 * self.entries.len()).max(MIN_SWEEP_AT);
        }
        self.entries
            .insert(Arc::as_ptr(a) as usize, (Arc::downgrade(a), fp));
    }
}

impl FingerprintCache {
    pub fn new() -> FingerprintCache {
        FingerprintCache::default()
    }

    /// The pattern fingerprint of `a`, hashed at most once per live
    /// allocation. Safe to call concurrently from many threads; every
    /// caller observes the same value `a.pattern_fingerprint()` would
    /// return.
    pub fn get(&self, a: &Arc<CsrMatrix>) -> u64 {
        if let Some(fp) = self.peek(a) {
            return fp;
        }
        // Hash outside the lock: concurrent racers compute the identical
        // value, so double work is possible but divergence is not.
        let fp = a.pattern_fingerprint();
        self.hashes.fetch_add(1, Ordering::Relaxed);
        self.memo.write().insert(a, fp);
        fp
    }

    /// The memoized fingerprint of `a`, or `None` without hashing.
    fn peek(&self, a: &Arc<CsrMatrix>) -> Option<u64> {
        match self.memo.read().entries.get(&(Arc::as_ptr(a) as usize)) {
            Some((w, fp)) if w.strong_count() > 0 => Some(*fp),
            _ => None,
        }
    }

    /// Record `fp`, already known to be `a`'s pattern fingerprint, without
    /// hashing. The allocation it was known under keeps its entry while
    /// live (a value swap cloned it because a queued request holds the old
    /// snapshot); once dead, the entry goes with the next sweep.
    pub(crate) fn carry(&self, a: &Arc<CsrMatrix>, fp: u64) {
        debug_assert_eq!(a.pattern_fingerprint(), fp, "carried a wrong fingerprint");
        self.memo.write().insert(a, fp);
    }

    /// Swap `a`'s numeric values through `Arc::make_mut` and carry its
    /// memoized fingerprint to wherever the matrix lands: values never
    /// enter the fingerprint. A never-memoized `a` has nothing to carry;
    /// its first lookup hashes, as for any new matrix.
    pub(crate) fn swap_values(&self, a: &mut Arc<CsrMatrix>, values: Vec<f64>) {
        let fp = self.peek(a);
        Arc::make_mut(a).values = values;
        if let Some(fp) = fp {
            self.carry(a, fp);
        }
    }

    /// Fingerprints computed on misses since construction (or, for a
    /// service's memo, the last [`crate::Service::reset_stats`]). Carried
    /// fingerprints are not hashes.
    pub fn hashes(&self) -> u64 {
        self.hashes.load(Ordering::Relaxed)
    }

    pub(crate) fn reset_hashes(&self) {
        self.hashes.store(0, Ordering::Relaxed);
    }

    /// Live (non-stale) entries currently memoized.
    pub fn len(&self) -> usize {
        self.memo
            .read()
            .entries
            .values()
            .filter(|(w, _)| w.strong_count() > 0)
            .count()
    }

    /// Entries held, stale ones included: what the memo costs in memory.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.memo.read().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    #[test]
    fn memoized_value_matches_direct_hash_and_survives_reuse() {
        let cache = FingerprintCache::new();
        let a = Arc::new(gen::random_uniform(64, 64, 4.0, 1.0, 1));
        let fp = a.pattern_fingerprint();
        assert_eq!(cache.get(&a), fp);
        assert_eq!(cache.get(&a), fp, "second lookup is memoized");
        assert_eq!(cache.len(), 1);
        // A different allocation with the same pattern gets its own entry
        // but the same fingerprint.
        let b = Arc::new((*a).clone());
        assert_eq!(cache.get(&b), fp);
        assert_eq!(cache.len(), 2);
        drop(b);
        // The dead entry no longer counts; a later sweep drops it.
        let c = Arc::new(gen::random_uniform(32, 32, 3.0, 1.0, 2));
        cache.get(&c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hashes(), 3, "one hash per allocation first seen");
    }

    #[test]
    fn value_swaps_carry_the_fingerprint_without_hashing() {
        let cache = FingerprintCache::new();
        let mut a = Arc::new(gen::random_uniform(64, 64, 4.0, 1.0, 3));
        let fp = cache.get(&a);
        assert_eq!(cache.hashes(), 1);

        // Sole owner: `make_mut` moves the matrix out from under the
        // memo's `Weak`, leaving the old address's entry dead.
        let before = Arc::as_ptr(&a);
        let swapped = vec![2.0; a.nnz()];
        cache.swap_values(&mut a, swapped.clone());
        assert_ne!(Arc::as_ptr(&a), before, "the memo's Weak forces a move");
        assert_eq!(a.values, swapped);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&a), fp);

        // Shared: `make_mut` clones and both snapshots stay memoized.
        let old = Arc::clone(&a);
        let nnz = a.nnz();
        cache.swap_values(&mut a, vec![3.0; nnz]);
        assert!(!Arc::ptr_eq(&old, &a));
        assert_eq!(old.values, swapped, "the pinned snapshot keeps its values");
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.get(&old), cache.get(&a)), (fp, fp));
        assert_eq!(cache.hashes(), 1, "carries never hash");

        // Never memoized: nothing to carry, the next lookup hashes.
        let mut b = Arc::new(gen::random_uniform(16, 16, 2.0, 1.0, 4));
        let nnz = b.nnz();
        cache.swap_values(&mut b, vec![1.0; nnz]);
        assert_eq!(cache.hashes(), 1);
        assert_eq!(cache.get(&b), b.pattern_fingerprint());
        assert_eq!(cache.hashes(), 2);
        cache.reset_hashes();
        assert_eq!(cache.hashes(), 0);
    }

    /// Carries never miss, so they must sweep too: a long run of value
    /// swaps, moved or cloned under a held snapshot, keeps the memo within
    /// its sweep bound instead of holding one dead entry per swap.
    #[test]
    fn carried_swaps_keep_the_memo_bounded() {
        let cache = FingerprintCache::new();
        let others: Vec<Arc<CsrMatrix>> = (0..3)
            .map(|s| Arc::new(gen::random_uniform(20, 20, 2.0, 1.0, 10 + s)))
            .collect();
        for o in &others {
            cache.get(o);
        }
        let mut a = Arc::new(gen::random_uniform(40, 40, 3.0, 1.0, 5));
        let fp = cache.get(&a);
        let nnz = a.nnz();
        for round in 0..500 {
            let held = (round % 2 == 1).then(|| Arc::clone(&a));
            cache.swap_values(&mut a, vec![round as f64; nnz]);
            drop(held);
            assert!(cache.held() <= MIN_SWEEP_AT, "{} entries", cache.held());
        }
        assert_eq!(cache.get(&a), fp);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hashes(), 4, "one per matrix, none per swap");
    }

    /// Satellite regression: fingerprints computed concurrently from many
    /// threads must be race-free and stable. Eight threads hammer the
    /// same shared memo over a mix of shared and thread-local matrices;
    /// every observation must equal the direct hash.
    #[test]
    fn concurrent_lookups_are_race_free_and_stable() {
        let cache = Arc::new(FingerprintCache::new());
        let shared: Vec<Arc<CsrMatrix>> = (0..4)
            .map(|s| Arc::new(gen::random_uniform(50, 40, 3.0, 1.0, 100 + s)))
            .collect();
        let want: Vec<u64> = shared.iter().map(|m| m.pattern_fingerprint()).collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let shared = shared.clone();
                let want = want.clone();
                std::thread::spawn(move || {
                    let own = Arc::new(gen::random_uniform(30, 30, 2.0, 1.0, 500 + t));
                    let own_fp = own.pattern_fingerprint();
                    for round in 0..200 {
                        let i = (t as usize + round) % shared.len();
                        assert_eq!(cache.get(&shared[i]), want[i]);
                        assert_eq!(cache.get(&own), own_fp);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics under concurrent lookup");
        }
        for (m, w) in shared.iter().zip(&want) {
            assert_eq!(cache.get(m), *w, "post-race value stays stable");
        }
    }
}
