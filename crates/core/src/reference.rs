//! Reference plan builds: the bodies the lean builds replaced, which
//! materialize per-item data (row ids per nonzero, per-product tuples,
//! per-bin copies of the product maps, provenance pairs) only to learn
//! what a launch costs or to re-pack what the union already ordered. Beside
//! them sits [`merge_family`], the merge SpMV/SpMM summation order written
//! per nonzero: the anchor every merge product is checked against.
//!
//! They are kept as references only. The conformance oracle and the
//! tests build every plan both ways and require the results to be equal
//! bit for bit: per-CTA cycles, counters, simulated milliseconds, ledgers
//! and every structural output. No serving path calls them. The block
//! primitives they share with the lean builds have references of their
//! own in their crates (the coalescing count, the block sort and the
//! global sort's downsweep).
//!
//! Unlike the test-only references elsewhere (`solvers::unfused`), this
//! module cannot be `#[cfg(test)]`: `mps conformance` runs it from a
//! release binary, outside `cargo test`. It is therefore public but
//! hidden from the docs, and the plans expose only `pub(crate)` seams to
//! it (`SpmvPlan::build` and `SpmmPlan::build` take the numeric charge,
//! `SpgemmPlan` its `BuildStages`).

use mps_merge::set_ops::{set_op_pairs, SetOp};
use mps_simt::block::radix_sort::{block_radix_sort_keys, block_radix_sort_pairs};
use mps_simt::block::{block_segmented_reduce, charge_exchange};
use mps_simt::grid::{
    launch_map_into_phased, launch_map_phased, LaunchBuffers, LaunchConfig, LaunchStats,
};
use mps_simt::{Counters, Device, Phase, PhaseLedger};
use mps_sparse::{pack_key, CsrMatrix};
use rayon::prelude::*;

use crate::assemble;
use crate::config::{SpAddConfig, SpgemmConfig, SpmmConfig, SpmvConfig};
use crate::delta::{CsrDelta, DeltaApplied};
use crate::error::PlanError;
use crate::partition::{MergePartition, TileLink};
use crate::spadd::{expand_keys, NONE};
use crate::spgemm::bins::BinClass;
use crate::spgemm::block_sort::{bits_for, TileReduced};
use crate::spgemm::plan::{charge_bins, BuildStages, NumericInputs};
use crate::spgemm::product::BinProducts;
use crate::spgemm::setup::Expansion;
use crate::spgemm::SpgemmPlan;
use crate::spmm::{column_tiles, finish_tile_rows, SpmmPlan};
use crate::spmv::{finish_rows, Epilogue, NumericCharge, SpmvPlan};
use crate::HashAccumulator;

/// [`SpmvPlan::new`] charging the reduction launch through a per-CTA
/// row-id expansion and [`block_segmented_reduce`] over a zero tile, with
/// the tile links derived per nonzero.
pub fn spmv_plan(device: &Device, a: &CsrMatrix, cfg: &SpmvConfig) -> SpmvPlan {
    SpmvPlan::build(device, a, cfg, spmv_numeric_charge)
}

/// [`SpmvPlan::simulate_fused`] through the reference charge.
pub fn spmv_simulate_fused(plan: &SpmvPlan, a: &CsrMatrix, epilogue: &Epilogue) -> LaunchStats {
    spmv_numeric_charge(plan, &plan.device, a, Some(epilogue)).reduction
}

/// `A·x` in the merge family's summation order at tiles of `nv` nonzeros,
/// per nonzero from the raw row offsets: each tile's row segments fold
/// their products in item order from 0.0; a segment that ends its row
/// inside the tile is stored; every tile's trailing segment is added onto
/// its row after all tiles, in tile order (onto 0.0 for a row that only
/// carries). Every merge SpMV and SpMM path, one-shots included, must
/// equal it bit for bit at its partition's tile
/// (`partition_structure().nv`), and it shares no walk with any of them.
pub fn merge_family(a: &CsrMatrix, nv: usize, x: &[f64]) -> Vec<f64> {
    let nnz = a.nnz();
    let mut row_of = Vec::with_capacity(nnz);
    for r in 0..a.num_rows {
        row_of.extend(std::iter::repeat_n(r, a.row_len(r)));
    }
    let mut y = vec![0.0; a.num_rows];
    let mut carries = Vec::new();
    for lo in (0..nnz).step_by(nv) {
        let hi = (lo + nv).min(nnz);
        let mut acc = 0.0;
        for item in lo..hi {
            acc += a.values[item] * x[a.col_idx[item] as usize];
            if item + 1 == hi {
                carries.push((row_of[item], acc));
            } else if row_of[item + 1] != row_of[item] {
                y[row_of[item]] = acc;
                acc = 0.0;
            }
        }
    }
    for (row, sum) in carries {
        y[row] += sum;
    }
    y
}

/// [`SpmmPlan::new`] charging each column tile through a per-CTA row-id
/// expansion and [`block_segmented_reduce`] over a zero tile, with the
/// tile links derived per nonzero.
pub fn spmm_plan(device: &Device, a: &CsrMatrix, k: usize, cfg: &SpmmConfig) -> SpmmPlan {
    SpmmPlan::build(device, a, k, cfg, spmm_tiled_charge)
}

/// [`SpgemmPlan::new`] (configuration checks aside) with the block sort
/// expanding one product at a time, the product maps walked per product,
/// and the numeric charge copying each bin's products.
pub fn spgemm_plan(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SpgemmConfig,
) -> SpgemmPlan {
    SpgemmPlan::build(
        device,
        a,
        b,
        cfg,
        &BuildStages {
            block_sort,
            product_sources,
            charge_numeric,
        },
    )
}

/// The tile links of [`MergePartition::walk_rows`] derived per nonzero, from the physical
/// rows: a row id expanded for every nonzero, each row's finishing CTA
/// read off its last nonzero, each row with none given to the CTA of the
/// next nonzero (the last CTA after the last one), each fold walked back
/// nonzero by nonzero to its row's first.
fn tile_links(part: &MergePartition, a: &CsrMatrix) -> Vec<TileLink> {
    let (nnz, nv) = (part.nnz, part.nv);
    let ctas = part.num_ctas().max(usize::from(a.num_rows > 0));
    if ctas == 0 {
        return Vec::new();
    }
    let mut row_of = Vec::with_capacity(nnz);
    for row in 0..a.num_rows {
        row_of.extend(std::iter::repeat_n(row, a.row_len(row)));
    }
    let mut owner = vec![ctas - 1; a.num_rows];
    let mut next_row = 0;
    for (item, &row) in row_of.iter().enumerate() {
        // Rows without nonzeros before this one.
        owner[next_row.min(row)..row].fill(item / nv);
        if row_of.get(item + 1) != Some(&row) {
            owner[row] = item / nv;
        }
        next_row = row + 1;
    }
    let mut finished = vec![0u32; ctas];
    for &cta in &owner {
        finished[cta] += 1;
    }
    let continued = |c: usize| c > 0 && c * nv < nnz && row_of[c * nv - 1] == row_of[c * nv];
    let mut rows_start = 0;
    (0..ctas)
        .map(|c| {
            let mut first = c * nv;
            if continued(c) && owner[row_of[first]] == c {
                while first > 0 && row_of[first - 1] == row_of[c * nv] {
                    first -= 1;
                }
            }
            let link = TileLink {
                rows_start,
                rows_end: rows_start + finished[c],
                fold_from: (first / nv) as u32,
            };
            rows_start = link.rows_end;
            link
        })
        .collect()
}

/// The SpMV reduction launch, each CTA expanding a row id per nonzero and
/// running [`block_segmented_reduce`] over a zero tile.
fn spmv_numeric_charge(
    plan: &SpmvPlan,
    device: &Device,
    a: &CsrMatrix,
    epilogue: Option<&Epilogue>,
) -> NumericCharge {
    let nnz = plan.part.nnz;
    let nv = plan.part.nv;
    let offsets_ref = &plan.part.offsets;
    let part = &plan.part;
    let links = tile_links(part, a);
    if nnz == 0 && (epilogue.is_none() || links.is_empty()) {
        return NumericCharge {
            reduction: LaunchStats::default(),
            heads: vec![Counters::default(); links.len()],
            links: Some(links),
        };
    }
    let links_ref = &links;
    let cfg_red = LaunchConfig::new(links.len(), plan.cfg.block_threads);
    let (heads, reduction) =
        launch_map_phased(device, "spmv_reduce", Phase::Reduction, cfg_red, |cta| {
            if nnz > 0 {
                let lo = cta.cta_id * nv;
                let hi = (lo + nv).min(nnz);
                let count = hi - lo;
                let (row_lo, row_hi) = part.cta_row_range(cta.cta_id);

                // Row offsets for the CTA's rows into shared memory.
                cta.read_coalesced(row_hi - row_lo + 2, 8);
                cta.shmem((row_hi - row_lo + 2) as u64);

                // Strided loads of column indices and values (coalesced).
                cta.read_coalesced(count, 4); // col_idx
                cta.read_coalesced(count, 8); // values

                // Gather x by column index: the data-dependent access.
                cta.gather(a.col_idx[lo..hi].iter().map(|&c| c as usize), 8);

                // Form products (one multiply per item — the 2·nnz flops
                // together with the adds inside the segmented reduction).
                cta.alu(count as u64);

                // Expand logical row ids by walking the shared offsets.
                let mut rows = Vec::with_capacity(count);
                let mut r = row_lo;
                cta.alu(count as u64);
                for item in lo..hi {
                    while r < row_hi && offsets_ref[r + 1] <= item {
                        r += 1;
                    }
                    rows.push(r);
                }

                // On hardware the strided register tile is transposed to
                // blocked order through shared memory before the scan; the
                // exchange covers two tiles (products and row indices).
                charge_exchange(cta, 2 * count);

                // Values are irrelevant to both structure and cost; segment
                // layout comes from the row expansion alone.
                let zeros = vec![0.0f64; count];
                block_segmented_reduce(cta, &zeros, &rows);
            }
            let head = *cta.counters();
            finish_rows(cta, &links_ref[cta.cta_id], epilogue);
            head
        });
    NumericCharge {
        reduction,
        heads,
        links: Some(links),
    }
}

/// The SpMM launch of every column tile, each CTA expanding a row id per
/// nonzero and running [`block_segmented_reduce`] over a zero tile, over
/// tile links derived per nonzero rather than the build's walked ones.
fn spmm_tiled_charge(plan: &mut SpmmPlan, device: &Device, a: &CsrMatrix, _: &[TileLink]) {
    let nnz = plan.part.nnz;
    let nv = plan.part.nv;
    let k = plan.k;
    let part = &plan.part;
    let offsets = &plan.part.offsets;
    let links = tile_links(part, a);

    let mut bufs: LaunchBuffers<()> = LaunchBuffers::new();
    let mut unit_out: Vec<()> = Vec::new();
    let mut tile_stats = LaunchStats::default();
    let mut reduction = LaunchStats::default();

    for (col0, w) in column_tiles(k, plan.cfg.tile()) {
        let cfg_red = LaunchConfig::new(links.len(), plan.cfg.block_threads);
        launch_map_into_phased(
            device,
            "spmm_reduce",
            Phase::TileTraversal,
            cfg_red,
            |cta| {
                let lo = cta.cta_id * nv;
                let hi = (lo + nv).min(nnz);
                let count = hi - lo;
                let (row_lo, row_hi) = part.cta_row_range(cta.cta_id);

                // Row offsets for the CTA's rows into shared memory.
                cta.read_coalesced(row_hi - row_lo + 2, 8);
                cta.shmem((row_hi - row_lo + 2) as u64);

                // A's column indices and values, streamed once per tile
                // (this is the traffic k independent SpMVs pay k times).
                cta.read_coalesced(count, 4);
                cta.read_coalesced(count, 8);

                // Wide gather of operand rows: each nonzero loads a
                // contiguous w-wide run of X's row-major storage.
                cta.gather_wide(
                    a.col_idx[lo..hi].iter().map(|&c| c as usize * k + col0),
                    8,
                    w,
                );

                // One multiply per nonzero per column slot.
                cta.alu((count * w) as u64);

                // Expand logical row ids by walking the shared offsets.
                let mut rows = Vec::with_capacity(count);
                let mut r = row_lo;
                cta.alu(count as u64);
                for item in lo..hi {
                    while r < row_hi && offsets[r + 1] <= item {
                        r += 1;
                    }
                    rows.push(r);
                }

                // Striped→blocked exchange of the row-id tile plus the
                // w-wide product tile.
                charge_exchange(cta, (1 + w) * count);

                // Segmented scan: the base routine prices one value
                // lane; the remaining w-1 lanes share the segment
                // bookkeeping and add only their adds and staging.
                let zeros = vec![0.0f64; count];
                block_segmented_reduce(cta, &zeros, &rows);
                cta.alu((3 * count * (w - 1)) as u64);
                cta.shmem((2 * count * (w - 1)) as u64);

                finish_tile_rows(cta, &links[cta.cta_id], k, col0, w);
            },
            &mut bufs,
            &mut unit_out,
            &mut tile_stats,
        );
        reduction.add(&tile_stats);
    }

    plan.reduction = reduction;
}

/// The block sort expanding, sorting and scanning one product at a time.
fn block_sort(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    exp: &Expansion,
    cfg: &SpgemmConfig,
) -> (Vec<TileReduced>, LaunchStats) {
    let nv = cfg.nv();
    let total = exp.products;
    let num_ctas = total.div_ceil(nv).max(1);
    let col_bits = bits_for(b.num_cols);
    let perm_bits = bits_for(nv);
    let keys_only = col_bits + perm_bits <= 32;

    let launch = LaunchConfig::new(num_ctas, cfg.block_threads);
    let (tiles, stats) = launch_map_phased(
        device,
        "spgemm_block_sort",
        Phase::BlockSort,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(total);
            let count = hi - lo;

            // Expand the tile's (row, col) coordinates. Values are NOT formed
            // in this phase (the χ placeholders of Figure 3a).
            let mut rows: Vec<u32> = Vec::with_capacity(count);
            let mut cols: Vec<u32> = Vec::with_capacity(count);
            exp.walk_tile(cta, lo, hi, |_, j, t| {
                let brow = a.col_idx[j] as usize;
                let bpos = b.row_offsets[brow] + t;
                rows.push(exp.a_row_of_nnz[j]);
                cols.push(b.col_idx[bpos]);
            });
            // Traffic: A column indices (sequential), B row offsets and column
            // indices (gathered by referenced row, contiguous runs inside it).
            cta.read_coalesced(count, 4);
            cta.gather(lo..hi, 4);

            // Single-pass stable radix sort on the column index. The sorted
            // permutation either rides in the upper key bits (keys-only sort)
            // or travels as an explicit 16-bit value (pair sort).
            let mut perm: Vec<u16>;
            if keys_only {
                let mut keys: Vec<u32> = cols
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| c | ((i as u32) << col_bits))
                    .collect();
                block_radix_sort_keys(cta, &mut keys, 0, col_bits);
                perm = keys.iter().map(|&k| (k >> col_bits) as u16).collect();
            } else {
                let mut keys = cols.clone();
                let mut vals: Vec<u32> = (0..count as u32).collect();
                block_radix_sort_pairs(cta, &mut keys, &mut vals, 0, col_bits);
                perm = vals.iter().map(|&v| v as u16).collect();
            }
            // Defensive: ensure stability produced a valid permutation.
            debug_assert_eq!(perm.len(), count);

            // Scan sorted entries for duplicate heads and reduce locally. Two
            // entries are duplicates when both row and col match; rows within a
            // column group are non-decreasing, so duplicates are adjacent.
            cta.alu(3 * count as u64);
            let mut unique_keys = Vec::with_capacity(count);
            let mut head = Vec::with_capacity(count);
            let mut prev: Option<(u32, u32)> = None;
            for &p in perm.iter() {
                let orig = p as usize;
                let rc = (rows[orig], cols[orig]);
                let is_head = prev != Some(rc);
                head.push(is_head);
                if is_head {
                    unique_keys.push(pack_key(rc.0, rc.1));
                }
                prev = Some(rc);
            }

            // Store: 16-bit permutation + packed head bits + the reduced pairs.
            cta.write_coalesced(count, 2);
            cta.write_coalesced(count.div_ceil(8), 1);
            cta.write_coalesced(unique_keys.len(), 8);

            if count == 0 {
                perm = Vec::new();
            }
            TileReduced {
                unique_keys,
                perm,
                head,
            }
        },
    );
    (tiles, stats)
}

/// The numeric charge copying each bin's products out of the maps into
/// contiguous streams, with a fresh hash table per mid row.
fn charge_numeric(device: &Device, n: &NumericInputs) -> (PhaseLedger, LaunchStats) {
    let NumericInputs {
        a,
        b,
        bins,
        row_products,
        row_offsets,
        a_idx,
        b_pos,
        s,
        ..
    } = *n;
    let sum = &bins.summary;

    // Per-bin product gather streams and output counts, row-major.
    let mut tiny_a = Vec::with_capacity(sum.tiny_products);
    let mut tiny_b = Vec::with_capacity(sum.tiny_products);
    let mut mid_a = Vec::with_capacity(sum.mid_products);
    let mut mid_b = Vec::with_capacity(sum.mid_products);
    let mut heavy_a = Vec::with_capacity(sum.heavy_products);
    let mut heavy_b = Vec::with_capacity(sum.heavy_products);
    let (mut tiny_out, mut mid_out, mut heavy_out) = (0usize, 0usize, 0usize);
    let mut mid_probes = 0u64;
    for (r, &class) in bins.class.iter().enumerate() {
        if row_products[r] == 0 {
            continue;
        }
        let q_lo = s[a.row_offsets[r]];
        let q_hi = s[a.row_offsets[r + 1]];
        let out = row_offsets[r + 1] - row_offsets[r];
        match class {
            BinClass::Tiny => {
                tiny_a.extend_from_slice(&a_idx[q_lo..q_hi]);
                tiny_b.extend_from_slice(&b_pos[q_lo..q_hi]);
                tiny_out += out;
            }
            BinClass::Mid => {
                mid_a.extend_from_slice(&a_idx[q_lo..q_hi]);
                mid_b.extend_from_slice(&b_pos[q_lo..q_hi]);
                mid_out += out;
                // Table sized from the symbolic count; measure the probes
                // this row's actual column stream costs.
                let mut table = HashAccumulator::with_capacity(out);
                for &bp in &b_pos[q_lo..q_hi] {
                    table.accumulate(b.col_idx[bp as usize] as u64, 1.0);
                }
                mid_probes += table.probes();
            }
            BinClass::Heavy => {
                heavy_a.extend_from_slice(&a_idx[q_lo..q_hi]);
                heavy_b.extend_from_slice(&b_pos[q_lo..q_hi]);
                heavy_out += out;
            }
        }
    }

    charge_bins(
        device,
        n,
        [
            (&whole(&tiny_a, &tiny_b), tiny_out),
            (&whole(&mid_a, &mid_b), mid_out),
            (&whole(&heavy_a, &heavy_b), heavy_out),
        ],
        mid_probes,
    )
}

/// One bin's copied product maps as a single-range stream.
fn whole<'p>(a_idx: &'p [u32], b_pos: &'p [u32]) -> BinProducts<'p> {
    let mut bin = BinProducts::new(a_idx, b_pos);
    bin.push(0..a_idx.len());
    bin
}

/// Per-product source indices `(a value index, b value index)` in expansion
/// order, walked one product at a time in chunks of the default tile:
/// each chunk seeks its first A nonzero with one binary search into the
/// product prefix sum, then walks.
fn product_sources(a: &CsrMatrix, b: &CsrMatrix, s: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let nv = SpgemmConfig::default().nv();
    let total = *s.last().expect("non-empty prefix sum");
    if total == 0 {
        return (Vec::new(), Vec::new());
    }
    let chunks = total.div_ceil(nv);
    let parts: Vec<(Vec<u32>, Vec<u32>)> = (0..chunks)
        .into_par_iter()
        .map(|chunk| {
            let lo = chunk * nv;
            let hi = (lo + nv).min(total);
            let mut j = s.partition_point(|&v| v <= lo) - 1;
            let mut a_idx = Vec::with_capacity(hi - lo);
            let mut b_pos = Vec::with_capacity(hi - lo);
            for q in lo..hi {
                while s[j + 1] <= q {
                    j += 1;
                }
                let t = q - s[j];
                a_idx.push(j as u32);
                b_pos.push((b.row_offsets[a.col_idx[j] as usize] + t) as u32);
            }
            (a_idx, b_pos)
        })
        .collect();
    let mut a_idx = Vec::with_capacity(total);
    let mut b_pos = Vec::with_capacity(total);
    for (ai, bp) in parts {
        a_idx.extend(ai);
        b_pos.extend(bp);
    }
    (a_idx, b_pos)
}

/// [`crate::apply_delta`] carrying `(i, j)` provenance pairs through the
/// union and assembling the output from its keys.
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
    let d_vals: Vec<Option<f64>> = edits.values().copied().collect();

    // Provenance pairs exactly as in SpAdd: `(i, NONE)` from the matrix,
    // `(NONE, j)` from the delta, matched keys fuse to `(i, j)`.
    let a_src: Vec<(u32, u32)> = (0..a.nnz() as u32).map(|i| (i, NONE)).collect();
    let d_src: Vec<(u32, u32)> = (0..d_keys.len() as u32).map(|j| (NONE, j)).collect();
    let (keys, src, union) = set_op_pairs(
        device,
        SetOp::Union,
        &a_keys,
        &a_src,
        &d_keys,
        &d_src,
        |x, y| (x.0, y.1),
        cfg.nv,
    );

    // Resolve each union entry: the delta side wins on a match, removes
    // drop, untouched matrix entries copy their value bits verbatim.
    let (mut inserted, mut updated, mut removed) = (0usize, 0usize, 0usize);
    let mut out_keys = Vec::with_capacity(keys.len());
    let mut values = Vec::with_capacity(keys.len());
    for (&key, &(i, j)) in keys.iter().zip(&src) {
        let v = if j == NONE {
            Some(a.values[i as usize])
        } else {
            match d_vals[j as usize] {
                Some(v) => {
                    if i == NONE {
                        inserted += 1;
                    } else {
                        updated += 1;
                    }
                    Some(v)
                }
                None => {
                    if i != NONE {
                        removed += 1;
                    }
                    None
                }
            }
        };
        if let Some(v) = v {
            out_keys.push(key);
            values.push(v);
        }
    }
    let row_offsets = assemble::row_offsets_from_sorted_keys(a.num_rows, &out_keys);
    let col_idx = assemble::cols_from_keys(&out_keys);
    Ok(DeltaApplied {
        c: CsrMatrix {
            num_rows: a.num_rows,
            num_cols: a.num_cols,
            row_offsets,
            col_idx,
            values,
        },
        inserted,
        updated,
        removed,
        expand,
        union,
    })
}
