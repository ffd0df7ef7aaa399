//! Pattern deltas: small COO-style edit sets applied to a CSR matrix
//! through the balanced-path union (Section III-B machinery).
//!
//! Streaming workloads — evolving graphs, time-stepped PDE meshes — mutate
//! a matrix by a handful of entries per round. Rebuilding the CSR (and
//! every cached plan keyed on its pattern) from scratch prices each round
//! at full replan cost. A [`CsrDelta`] is instead priced as the
//! balanced-path union [`crate::spadd::SpAddPlan`] is built on: the matrix
//! expands to packed (row,col) keys, the delta's (already sorted) keys
//! form the second operand, and the union's partition, count and fill
//! launches run over them. Matched keys resolve in the delta's favour (an
//! upsert replaces the value, a remove drops the entry); delta-only
//! upserts insert; delta-only removes are no-ops. The output is assembled
//! from the rows the delta touches, every other row copying over whole,
//! so cost scales with `|A| + |delta|`, never with pattern churn.
//!
//! Whether the *pattern* changed (any insert or remove took effect) is
//! reported on the result — value-only deltas keep the pattern
//! fingerprint, and therefore every cached plan, valid.

use std::collections::BTreeMap;

use mps_merge::set_ops::{set_op_count, SetOp, SetOpStats};
use mps_simt::grid::LaunchStats;
use mps_simt::Device;
use mps_sparse::{pack_key, CooMatrix, CsrMatrix};

use crate::config::SpAddConfig;
use crate::error::PlanError;
use crate::spadd::expand_keys;

/// A small, ordered edit set over one matrix: upserts (insert-or-replace a
/// value at a coordinate) and removes (drop the entry if present). Later
/// entries on the same coordinate override earlier ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrDelta {
    /// `(row, col, Some(v))` is an upsert, `(row, col, None)` a remove,
    /// in insertion order.
    entries: Vec<(u32, u32, Option<f64>)>,
}

impl CsrDelta {
    pub fn new() -> CsrDelta {
        CsrDelta::default()
    }

    /// Insert `value` at `(row, col)`, replacing any existing entry.
    pub fn upsert(&mut self, row: u32, col: u32, value: f64) -> &mut Self {
        self.entries.push((row, col, Some(value)));
        self
    }

    /// Drop the entry at `(row, col)` if present (no-op otherwise).
    pub fn remove(&mut self, row: u32, col: u32) -> &mut Self {
        self.entries.push((row, col, None));
        self
    }

    /// Edits recorded (before coordinate dedup).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded edits in insertion order.
    pub fn entries(&self) -> &[(u32, u32, Option<f64>)] {
        &self.entries
    }

    /// The delta that turns `old` into `new`: an upsert for every entry of
    /// `new` that is absent from `old` or carries different bits, and a
    /// remove for every entry of `old` absent from `new`. Applying the
    /// result to `old` reproduces `new` bitwise.
    pub fn between(old: &CsrMatrix, new: &CsrMatrix) -> Result<CsrDelta, PlanError> {
        if (old.num_rows, old.num_cols) != (new.num_rows, new.num_cols) {
            return Err(PlanError::ShapeMismatch {
                left: (old.num_rows, old.num_cols),
                right: (new.num_rows, new.num_cols),
            });
        }
        let mut delta = CsrDelta::new();
        for r in 0..old.num_rows {
            let (olo, ohi) = (old.row_offsets[r], old.row_offsets[r + 1]);
            let (nlo, nhi) = (new.row_offsets[r], new.row_offsets[r + 1]);
            let (mut i, mut j) = (olo, nlo);
            while i < ohi || j < nhi {
                let oc = if i < ohi { old.col_idx[i] } else { u32::MAX };
                let nc = if j < nhi { new.col_idx[j] } else { u32::MAX };
                if oc < nc || j >= nhi {
                    delta.remove(r as u32, oc);
                    i += 1;
                } else if nc < oc || i >= ohi {
                    delta.upsert(r as u32, nc, new.values[j]);
                    j += 1;
                } else {
                    if old.values[i].to_bits() != new.values[j].to_bits() {
                        delta.upsert(r as u32, nc, new.values[j]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok(delta)
    }

    /// Collapse the edit list to one effect per coordinate (last wins),
    /// validating bounds against the target shape.
    pub(crate) fn resolve(
        &self,
        num_rows: usize,
        num_cols: usize,
    ) -> Result<BTreeMap<(u32, u32), Option<f64>>, PlanError> {
        let mut map = BTreeMap::new();
        for &(r, c, v) in &self.entries {
            if r as usize >= num_rows || c as usize >= num_cols {
                return Err(PlanError::DeltaOutOfBounds {
                    row: r,
                    col: c,
                    num_rows,
                    num_cols,
                });
            }
            map.insert((r, c), v);
        }
        Ok(map)
    }
}

/// Result of [`apply_delta`]: the mutated matrix plus what the delta did
/// and the simulated cost of the union pass that did it.
#[derive(Debug, Clone)]
pub struct DeltaApplied {
    pub c: CsrMatrix,
    /// Upserts that created a new entry.
    pub inserted: usize,
    /// Upserts that replaced an existing entry's value.
    pub updated: usize,
    /// Removes that dropped an existing entry (no-op removes not counted).
    pub removed: usize,
    /// Cost of expanding the matrix to keys.
    pub expand: LaunchStats,
    /// Per-phase cost of the balanced-path union.
    pub union: SetOpStats,
}

impl DeltaApplied {
    /// Whether the sparsity pattern changed (any insert or effective
    /// remove). Value-only deltas keep the pattern fingerprint — and every
    /// plan cached under it — valid.
    pub fn pattern_changed(&self) -> bool {
        self.inserted > 0 || self.removed > 0
    }

    /// Total simulated milliseconds of the apply (expand + union).
    pub fn sim_ms(&self) -> f64 {
        self.expand.sim_ms + self.union.sim_ms()
    }
}

/// Apply `delta` to `a` through one balanced-path union pass, producing
/// the mutated matrix. Errors if any delta coordinate is out of bounds.
pub fn apply_delta(
    device: &Device,
    a: &CsrMatrix,
    delta: &CsrDelta,
    cfg: &SpAddConfig,
) -> Result<DeltaApplied, PlanError> {
    if cfg.nv <= 1 {
        return Err(PlanError::InvalidConfig(
            "SpAdd nv must exceed 1 (balanced tiles shift by one)",
        ));
    }
    let edits = delta.resolve(a.num_rows, a.num_cols)?;

    let (a_keys, expand) = expand_keys(device, a, cfg.nv);
    // The resolved map iterates in (row, col) order, which packed keys
    // preserve — the delta side arrives sorted for free.
    let d_keys: Vec<u64> = edits.keys().map(|&(r, c)| pack_key(r, c)).collect();

    // The union's launches, priced for the provenance pairs `(i, j)` the
    // kernel carries (an index into each operand, 8 bytes). The output is
    // assembled below from the rows the delta touches; untouched rows
    // copy over whole.
    let (_, union) = set_op_count(
        device,
        SetOp::Union,
        &a_keys,
        &d_keys,
        std::mem::size_of::<(u32, u32)>(),
        cfg.nv,
    );

    // Resolve each edit against its row: the delta side wins on a match
    // (the first entry of A's run at that column, as the union pairs
    // ranks), removes drop, every other entry keeps its value bits.
    let (mut inserted, mut updated, mut removed) = (0usize, 0usize, 0usize);
    let upserts = edits.values().filter(|v| v.is_some()).count();
    let mut c = CsrMatrix {
        num_rows: a.num_rows,
        num_cols: a.num_cols,
        row_offsets: Vec::with_capacity(a.num_rows + 1),
        col_idx: Vec::with_capacity(a.nnz() + upserts),
        values: Vec::with_capacity(a.nnz() + upserts),
    };
    c.row_offsets.push(0);
    let mut next_row = 0;
    let mut edits = edits.iter().peekable();
    while let Some(&(&(row, _), _)) = edits.peek() {
        let r = row as usize;
        copy_rows(a, next_row..r, &mut c);
        let (mut i, hi) = (a.row_offsets[r], a.row_offsets[r + 1]);
        while let Some((&(_, col), &edit)) = edits.next_if(|(&(er, _), _)| er == row) {
            let at = i + a.col_idx[i..hi].partition_point(|&c| c < col);
            c.col_idx.extend_from_slice(&a.col_idx[i..at]);
            c.values.extend_from_slice(&a.values[i..at]);
            i = at;
            let matched = i < hi && a.col_idx[i] == col;
            i += usize::from(matched);
            match edit {
                Some(v) => {
                    c.col_idx.push(col);
                    c.values.push(v);
                    if matched {
                        updated += 1;
                    } else {
                        inserted += 1;
                    }
                }
                None => removed += usize::from(matched),
            }
        }
        c.col_idx.extend_from_slice(&a.col_idx[i..hi]);
        c.values.extend_from_slice(&a.values[i..hi]);
        c.row_offsets.push(c.col_idx.len());
        next_row = r + 1;
    }
    copy_rows(a, next_row..a.num_rows, &mut c);
    Ok(DeltaApplied {
        c,
        inserted,
        updated,
        removed,
        expand,
        union,
    })
}

/// Append `a`'s `rows` to `c` unchanged.
fn copy_rows(a: &CsrMatrix, rows: std::ops::Range<usize>, c: &mut CsrMatrix) {
    let (lo, hi) = (a.row_offsets[rows.start], a.row_offsets[rows.end]);
    let base = c.col_idx.len();
    c.col_idx.extend_from_slice(&a.col_idx[lo..hi]);
    c.values.extend_from_slice(&a.values[lo..hi]);
    c.row_offsets.extend(
        a.row_offsets[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o - lo + base),
    );
}

/// Reference delta application: a plain coordinate map, no union pass.
/// Used by tests to pin [`apply_delta`]'s semantics.
pub fn apply_delta_reference(a: &CsrMatrix, delta: &CsrDelta) -> Result<CsrMatrix, PlanError> {
    let edits = delta.resolve(a.num_rows, a.num_cols)?;
    let mut map: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for r in 0..a.num_rows {
        for i in a.row_offsets[r]..a.row_offsets[r + 1] {
            map.insert((r as u32, a.col_idx[i]), a.values[i]);
        }
    }
    for ((r, c), v) in edits {
        match v {
            Some(v) => {
                map.insert((r, c), v);
            }
            None => {
                map.remove(&(r, c));
            }
        }
    }
    let mut coo = CooMatrix::new(a.num_rows, a.num_cols);
    for ((r, c), v) in map {
        coo.push(r, c, v);
    }
    Ok(coo.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    fn cfg() -> SpAddConfig {
        SpAddConfig::default()
    }

    /// Deterministic mixed delta touching existing and fresh coordinates.
    fn mixed_delta(a: &CsrMatrix, seed: u64) -> CsrDelta {
        let mut d = CsrDelta::new();
        // Upsert over some existing entries, remove others.
        let mut k = seed as usize;
        for r in 0..a.num_rows {
            for i in a.row_offsets[r]..a.row_offsets[r + 1] {
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match k % 11 {
                    0 => {
                        d.upsert(r as u32, a.col_idx[i], (k % 100) as f64 / 7.0);
                    }
                    1 => {
                        d.remove(r as u32, a.col_idx[i]);
                    }
                    _ => {}
                }
            }
        }
        // Fresh inserts and no-op removes at arbitrary coordinates.
        for t in 0..8u32 {
            let r = (seed as u32 + 3 * t) % a.num_rows as u32;
            let c = (seed as u32 + 5 * t) % a.num_cols as u32;
            if t % 3 == 0 {
                d.remove(r, c);
            } else {
                d.upsert(r, c, t as f64 - 2.5);
            }
        }
        d
    }

    #[test]
    fn union_apply_matches_reference_bitwise() {
        for (m, seed) in [
            (gen::random_uniform(120, 100, 5.0, 3.0, 7), 1u64),
            (gen::power_law(150, 150, 1, 1.5, 60, 9), 2),
            (gen::stencil_5pt(12, 12), 3),
        ] {
            let d = mixed_delta(&m, seed);
            let got = apply_delta(&dev(), &m, &d, &cfg()).expect("in bounds");
            let want = apply_delta_reference(&m, &d).expect("in bounds");
            assert_eq!(got.c, want, "union apply must match the reference");
            got.c.validate().expect("well-formed output");
            assert!(got.sim_ms() > 0.0);
        }
    }

    #[test]
    fn empty_delta_is_identity_and_value_only_keeps_pattern() {
        let m = gen::random_uniform(80, 80, 4.0, 2.0, 5);
        let r = apply_delta(&dev(), &m, &CsrDelta::new(), &cfg()).expect("ok");
        assert_eq!(r.c, m, "empty delta must reproduce the matrix bitwise");
        assert!(!r.pattern_changed());

        // Value-only: upsert existing coordinates.
        let mut d = CsrDelta::new();
        d.upsert(0, m.col_idx[0], 42.0);
        let r = apply_delta(&dev(), &m, &d, &cfg()).expect("ok");
        assert!(!r.pattern_changed());
        assert_eq!(r.updated, 1);
        assert_eq!(
            r.c.pattern_fingerprint(),
            m.pattern_fingerprint(),
            "value-only delta keeps the pattern fingerprint"
        );
        assert_eq!(r.c.values[0], 42.0);
    }

    #[test]
    fn inserts_removes_and_last_write_wins() {
        let m = gen::stencil_5pt(6, 6);
        let fresh = {
            // A coordinate not in the 5-point stencil pattern.
            let (r, c) = (0u32, 5u32);
            assert!(!m.col_idx[m.row_offsets[0]..m.row_offsets[1]].contains(&c));
            (r, c)
        };
        let mut d = CsrDelta::new();
        d.upsert(fresh.0, fresh.1, 1.0);
        d.remove(fresh.0, fresh.1);
        d.upsert(fresh.0, fresh.1, 9.0); // last wins
        d.remove(2, 35); // out of pattern: no-op
        let r = apply_delta(&dev(), &m, &d, &cfg()).expect("ok");
        assert_eq!((r.inserted, r.updated, r.removed), (1, 0, 0));
        assert!(r.pattern_changed());
        assert_eq!(r.c.nnz(), m.nnz() + 1);
        assert_eq!(r.c, apply_delta_reference(&m, &d).expect("ok"));
    }

    #[test]
    fn between_roundtrips_bitwise() {
        let old = gen::random_uniform(100, 90, 5.0, 3.0, 11);
        let d = mixed_delta(&old, 13);
        let new = apply_delta_reference(&old, &d).expect("ok");
        let between = CsrDelta::between(&old, &new).expect("same shape");
        let replayed = apply_delta(&dev(), &old, &between, &cfg()).expect("ok");
        assert_eq!(replayed.c, new, "between(old, new) applied to old is new");
        // Identical matrices produce an empty delta.
        assert!(CsrDelta::between(&old, &old)
            .expect("same shape")
            .is_empty());
        // Shape mismatch is typed.
        let other = gen::stencil_5pt(3, 3);
        assert!(matches!(
            CsrDelta::between(&old, &other),
            Err(PlanError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_bounds_entries_are_typed_errors() {
        let m = gen::stencil_5pt(4, 4);
        let mut d = CsrDelta::new();
        d.upsert(99, 0, 1.0);
        assert!(matches!(
            apply_delta(&dev(), &m, &d, &cfg()),
            Err(PlanError::DeltaOutOfBounds { row: 99, .. })
        ));
        let mut d = CsrDelta::new();
        d.remove(0, 99);
        assert!(matches!(
            apply_delta_reference(&m, &d),
            Err(PlanError::DeltaOutOfBounds { col: 99, .. })
        ));
    }
}
