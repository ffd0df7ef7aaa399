//! Checkout pool of [`Workspace`] arenas.
//!
//! Plan executions stay zero-alloc only if their scratch buffers survive
//! between calls. A single shared `Workspace` would serialize callers, so
//! the pool hands each execution its own arena and takes it back after.
//! Retired arenas record their high-water marks
//! ([`Workspace::high_water_marks`]); a fresh arena minted when the pool
//! is empty is prewarmed to those marks, so even first-use arenas start at
//! steady-state capacity instead of growing through reallocation.

use mps_core::Workspace;

pub(crate) struct WorkspacePool {
    free: Vec<Workspace>,
    /// Largest f64-buffer capacity (elements) seen on any returned arena.
    f64_high: usize,
    /// Largest carry-buffer capacity seen on any returned arena.
    carry_high: usize,
    pub checkouts: u64,
    pub reuses: u64,
}

impl WorkspacePool {
    pub fn new() -> WorkspacePool {
        WorkspacePool {
            free: Vec::new(),
            f64_high: 0,
            carry_high: 0,
            checkouts: 0,
            reuses: 0,
        }
    }

    /// Take an arena: a pooled one when available, otherwise a fresh arena
    /// prewarmed to the pool's recorded high-water marks.
    pub fn checkout(&mut self) -> Workspace {
        self.checkouts += 1;
        match self.free.pop() {
            Some(ws) => {
                self.reuses += 1;
                ws
            }
            None => {
                let mut ws = Workspace::new();
                ws.prewarm(self.f64_high, self.carry_high);
                ws
            }
        }
    }

    /// Return an arena, folding its high-water marks into the pool's.
    pub fn give_back(&mut self, ws: Workspace) {
        let (f, c) = ws.high_water_marks();
        self.f64_high = self.f64_high.max(f);
        self.carry_high = self.carry_high.max(c);
        self.free.push(ws);
    }

    /// Chaos hook: forcibly exhaust the pool — drop every free arena and
    /// forget the prewarm marks, so the next checkout pays the full cold
    /// allocation path. Returns the number of arenas dropped.
    pub fn exhaust(&mut self) -> usize {
        let dropped = self.free.len();
        self.free.clear();
        self.f64_high = 0;
        self.carry_high = 0;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_arena() {
        let mut p = WorkspacePool::new();
        let ws = p.checkout();
        assert_eq!(p.reuses, 0);
        p.give_back(ws);
        let _ws = p.checkout();
        assert_eq!(p.checkouts, 2);
        assert_eq!(p.reuses, 1);
    }

    #[test]
    fn fresh_arena_is_prewarmed_to_high_water() {
        let mut p = WorkspacePool::new();
        let mut ws = p.checkout();
        let mut buf = ws.take_f64();
        buf.resize(5000, 0.0);
        ws.put_f64(buf);
        p.give_back(ws);
        assert!(p.f64_high >= 5000);
        // Drain the pool, then mint a fresh arena: it must start at the
        // recorded capacity, not empty.
        let _held = p.checkout();
        let mut fresh = p.checkout();
        assert!(fresh.take_f64().capacity() >= 5000);
    }
}
