//! Reusable buffer arena for plan executions.
//!
//! The plan/execute split (see [`crate::spmv::SpmvPlan`],
//! [`crate::spadd::SpAddPlan`], [`crate::spgemm::SpgemmPlan`]) moves every
//! structure-dependent phase to plan-build time; what remains per execution
//! is pure numeric work over precomputed maps. The last source of per-call
//! host overhead is allocation of the large intermediate buffers (expanded
//! values, per-CTA carries, assembled outputs). A [`Workspace`] owns those
//! buffers across calls: `take_*` hands out a cleared buffer whose capacity
//! survives from previous executions, `put_*` returns it. After a warm-up
//! execution, steady-state plan executions perform **zero** heap
//! allocations (enforced by the repository's counting-allocator test).

/// Pool of reusable scratch buffers shared by plan executions.
///
/// Buffers are typed pools: taking pops the largest-capacity buffer (so a
/// workspace shared between differently sized plans converges to the
/// high-water capacity), putting clears and returns it. The pools start
/// empty; nothing is allocated until an execution asks for scratch.
#[derive(Debug, Default)]
pub struct Workspace {
    f64_bufs: Vec<Vec<f64>>,
    carry_bufs: Vec<Vec<(usize, f64)>>,
}

impl Workspace {
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Borrow an empty `f64` scratch buffer, retaining its old capacity.
    pub fn take_f64(&mut self) -> Vec<f64> {
        take_largest(&mut self.f64_bufs)
    }

    /// Return an `f64` scratch buffer to the pool.
    pub fn put_f64(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.f64_bufs.push(buf);
    }

    /// Borrow an empty carry buffer (`(row, partial sum)` pairs).
    pub fn take_carries(&mut self) -> Vec<(usize, f64)> {
        take_largest(&mut self.carry_bufs)
    }

    /// Return a carry buffer to the pool.
    pub fn put_carries(&mut self, mut buf: Vec<(usize, f64)>) {
        buf.clear();
        self.carry_bufs.push(buf);
    }
}

/// Pop the pooled buffer with the largest capacity (or a fresh empty one).
fn take_largest<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let best = pool
        .iter()
        .enumerate()
        .max_by_key(|(_, b)| b.capacity())
        .map(|(i, _)| i);
    match best {
        Some(i) => pool.swap_remove(i),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_retains_capacity() {
        let mut ws = Workspace::new();
        let mut b = ws.take_f64();
        assert_eq!(b.capacity(), 0);
        b.resize(1000, 0.0);
        let cap = b.capacity();
        ws.put_f64(b);
        let b2 = ws.take_f64();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap);
    }

    #[test]
    fn take_prefers_largest_buffer() {
        let mut ws = Workspace::new();
        let mut small = ws.take_f64();
        small.reserve(10);
        let mut big = ws.take_f64();
        big.reserve(10_000);
        let big_cap = big.capacity();
        ws.put_f64(small);
        ws.put_f64(big);
        assert_eq!(ws.take_f64().capacity(), big_cap);
    }

    #[test]
    fn carry_pool_round_trips() {
        let mut ws = Workspace::new();
        let mut c = ws.take_carries();
        c.push((3, 1.5));
        ws.put_carries(c);
        let c2 = ws.take_carries();
        assert!(c2.is_empty());
        assert!(c2.capacity() >= 1);
    }
}
