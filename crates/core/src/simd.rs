//! Inner numeric kernels for the host execute paths, and the CPU tiers
//! they are compiled for.
//!
//! The flat numeric walks behind [`crate::spmv::SpmvPlan`] and
//! [`crate::spmm::SpmmPlan`] spend essentially all of their time in two
//! small routines: a gathered dot over one row run (SpMV) and a `w`-wide
//! lane accumulation (SpMM column passes, width 1 included). Each has a
//! single scalar body, written once with `#[inline(always)]`, and no
//! entry point of its own.
//!
//! **Dispatch per walk.** The unit compiled per CPU tier is the whole
//! walk over a partition's tiles: `spmv::spmv_segment_walk` and the SpMM
//! column pass each have a portable build and, on x86-64 with AVX2 at
//! runtime, a copy compiled under `#[target_feature(enable = "avx2")]`
//! (wide SpMM passes also an AVX-512F one), so the autovectorizer may use
//! the wider lanes. Each execute tests the CPU once and runs one copy; the
//! row loop, the callbacks and these bodies inline into it, with no call
//! per row. A walk also has one loop per row map (raw or compacted
//! offsets), so the common raw path carries no map lookup.
//!
//! **Bitwise invariance.** Dispatch never changes results: every variant
//! performs the identical sequence of IEEE-754 multiplies and adds (the
//! simulated kernel's summation order — products in item order, folds from
//! 0.0), and Rust never contracts a `mul` + `add` into a fused
//! multiply-add, so vector width only changes how many independent lanes
//! retire per cycle, not what any lane computes. The
//! `dispatched_walks_match_portable_bits` test pins this on hardware
//! where both paths exist.

/// True when the AVX2 walks are safe to call. The std detection macro
/// caches its answer in an atomic, so dispatch costs a relaxed load and a
/// predictable branch.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// True when the AVX-512F walks are safe to call. The wide SpMM passes
/// want it badly: a 64-lane accumulator is eight zmm registers, where
/// 256-bit code must spill half its sixteen ymm names every nonzero.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn have_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Gathered dot over one row run. Multiplies are formed in independent
/// 8-wide chunks so the compiler can pipeline the loads and muls; the adds
/// fold strictly in item order from 0.0, which is the exact summation
/// order of the simulated kernel's per-segment reduction — the result is
/// bitwise identical to the naive per-item loop, and to each lane of
/// [`seg_dot_impl`].
#[inline(always)]
pub(crate) fn dot_gather(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    const W: usize = 8;
    let mut acc = 0.0f64;
    let mut vc = vals.chunks_exact(W);
    let mut cc = cols.chunks_exact(W);
    for (v, c) in (&mut vc).zip(&mut cc) {
        let mut prod = [0.0f64; W];
        for t in 0..W {
            prod[t] = v[t] * x[c[t] as usize];
        }
        for &p in &prod {
            acc += p;
        }
    }
    for (v, &c) in vc.remainder().iter().zip(cc.remainder()) {
        acc += v * x[c as usize];
    }
    acc
}

/// Width-`W` gathered segment dot: each nonzero's value multiplies a
/// contiguous `W`-wide run of its operand row, folding into `W` lane
/// accumulators in item order from 0.0 — per lane this is exactly
/// [`dot_gather`]'s order, so the width specialization never changes a
/// bit.
/// The const width keeps the accumulators in registers and fully unrolls
/// the lane loop; a runtime-width loop re-checks bounds and accumulator
/// aliasing on every nonzero.
#[inline(always)]
fn seg_dot_wide_impl<const W: usize>(
    vals: &[f64],
    cols: &[u32],
    x: &[f64],
    k: usize,
    col0: usize,
) -> [f64; W] {
    // Gathered rows are invisible to hardware prefetchers (the next row's
    // address comes from `cols`, not a stride), so issue software
    // prefetches for the row PF nonzeros ahead. Pure hint: no memory is
    // read, results are unchanged; it only matters when the operand block
    // has spilled to L3 (large n·k).
    #[cfg(target_arch = "x86_64")]
    const PF: usize = 6;
    let mut acc = [0.0f64; W];
    if vals.is_empty() {
        return acc;
    }
    // One check per segment so the clamp below can never underflow.
    assert!(x.len() >= W, "operand shorter than tile width");
    let lim = x.len() - W;
    for (j, (&v, &c)) in vals.iter().zip(cols).enumerate() {
        // Only wide tiles prefetch: a 32+-lane operand block (n·k ≥ L2)
        // misses to L3/DRAM, while narrow tiles are cache-resident and
        // the extra prefetch µops would only cost issue slots.
        #[cfg(target_arch = "x86_64")]
        if W >= 32 {
            if let Some(&cf) = cols.get(j + PF) {
                let row = (cf as usize * k + col0).min(lim);
                // SAFETY: `row + W <= x.len()` by the clamp, and prefetch
                // itself has no observable effect on memory.
                unsafe {
                    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                    let p = x.as_ptr().add(row) as *const i8;
                    let mut off = 0usize;
                    while off < W {
                        _mm_prefetch::<_MM_HINT_T0>(p.add(off * 8));
                        off += 8;
                    }
                }
            }
        }
        // Branchless slice bound: clamping the start index into range
        // replaces the per-nonzero panic branch with one `min`, keeping
        // the gathered loads off the checked-index dependency chain. For
        // any well-formed operator (`cols[j] < x.len() / k`, which plan
        // construction requires) the clamp never engages and results are
        // identical; a corrupted index reads in-bounds garbage instead of
        // panicking.
        let start = (c as usize * k + col0).min(lim);
        // SAFETY: `start + W <= x.len()` by the clamp above.
        let xrow = unsafe { x.get_unchecked(start..start + W) };
        for t in 0..W {
            acc[t] += v * xrow[t];
        }
    }
    acc
}

/// One segment's `out.len()`-wide lane sums, dispatched to a const-width
/// kernel for every width from 1 to 16 (the widths request coalescing
/// forms, up to its 16-request batches, and the width-1 pass left over
/// when `k` is one more than a multiple of the pass width) and for 32 and
/// 64; any other width takes the generic runtime-width loop (bitwise
/// identical, just slower: it ran odd widths at about twice the time of
/// the next power of two).
///
/// Callers dispatch at the walk level (see `SpmmPlan`), so this body
/// inlines into whichever feature context the walk was compiled under.
#[inline(always)]
pub(crate) fn seg_dot_impl(
    vals: &[f64],
    cols: &[u32],
    x: &[f64],
    k: usize,
    col0: usize,
    out: &mut [f64],
) {
    macro_rules! const_widths {
        ($($w:literal)*) => {
            match out.len() {
                $($w => out.copy_from_slice(&seg_dot_wide_impl::<$w>(vals, cols, x, k, col0)),)*
                _ => seg_dot_runtime(vals, cols, x, k, col0, out),
            }
        };
    }
    const_widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 32 64)
}

/// [`seg_dot_impl`] for a width with no const kernel.
#[inline(always)]
fn seg_dot_runtime(vals: &[f64], cols: &[u32], x: &[f64], k: usize, col0: usize, out: &mut [f64]) {
    let w = out.len();
    out.fill(0.0);
    for (&v, &c) in vals.iter().zip(cols) {
        let xrow = &x[c as usize * k + col0..][..w];
        for (s, &xj) in out.iter_mut().zip(xrow) {
            *s += v * xj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(n: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        let ncols = 97usize;
        let vals: Vec<f64> = (0..n)
            .map(|_| (next() % 2000) as f64 / 1000.0 - 1.0)
            .collect();
        let cols: Vec<u32> = (0..n).map(|_| (next() % ncols as u64) as u32).collect();
        let x: Vec<f64> = (0..ncols * k)
            .map(|_| (next() % 2000) as f64 / 999.0 - 1.0)
            .collect();
        (vals, cols, x)
    }

    #[test]
    fn dispatched_walks_match_portable_bits() {
        use crate::partition::MergePartition;
        use crate::spmv::{spmv_segment_walk, spmv_walk};
        use mps_simt::Device;
        use mps_sparse::CsrMatrix;

        // On hardware with AVX2 this compares two different codegens of
        // the same walk; elsewhere it degenerates to self-equality. Row
        // lengths cross the 8-chunk boundary both ways, tiles of 8 to 128
        // nonzeros put rows across several tiles and row ends on tile
        // boundaries, and the empty rows run on the compacted and the raw
        // path.
        let lens = [0usize, 1, 5, 8, 17, 200, 0, 0, 3, 64, 9, 0, 31, 0];
        let mut row_offsets = vec![0];
        for len in lens {
            row_offsets.push(row_offsets.last().unwrap() + len);
        }
        let nnz = row_offsets[lens.len()];
        let (values, col_idx, x) = fixture(nnz, 1, 0x9e3779b97f4a7c15);
        let a = CsrMatrix {
            num_rows: lens.len(),
            num_cols: x.len(),
            row_offsets,
            col_idx,
            values,
        };
        for force_no_compaction in [false, true] {
            for (threads, nv) in [(8, 8), (32, 32), (64, 64), (128, 896)] {
                let part =
                    MergePartition::build(&Device::titan(), &a, threads, nv, force_no_compaction);
                assert_eq!(part.nv, threads.min(nv));
                let (mut want, mut got) = (vec![0.0; a.num_rows], vec![0.0; a.num_rows]);
                let (mut want_carries, mut carries) = (Vec::new(), Vec::new());
                spmv_walk(&part, &a, &x, &mut want, &mut want_carries);
                spmv_segment_walk(&part, &a, &x, &mut got, &mut carries);
                let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "nv={nv} raw={force_no_compaction}");
                assert_eq!(carries.len(), part.num_ctas());
            }
        }
    }

    #[test]
    fn seg_dot_widths_agree_with_scalar_lanes() {
        // Every lane of the wide kernel must equal the scalar dot on that
        // lane's column — the invariant the SpMM column passes are built
        // on. Widths 1..=16 and 32, 64 have const kernels; 17 and 33 take
        // the runtime-width loop. Each also runs as a column pass inside a
        // wider block (k = w + 3, col0 = 2).
        for w in (1usize..=17).chain([32, 33, 64]) {
            for (k, col0) in [(w, 0), (w + 3, 2)] {
                let (vals, cols, x) = fixture(29, k, 999 + w as u64);
                let mut wide = vec![f64::NAN; w];
                seg_dot_impl(&vals, &cols, &x, k, col0, &mut wide);
                for (t, &got) in wide.iter().enumerate() {
                    let column: Vec<f64> = x.iter().skip(col0 + t).step_by(k).copied().collect();
                    let lane = dot_gather(&vals, &cols, &column);
                    assert_eq!(got.to_bits(), lane.to_bits(), "w={w} k={k} lane {t}");
                }
            }
        }
    }
}
