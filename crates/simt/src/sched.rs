//! Wave scheduler: maps per-CTA cycle counts to a kernel makespan.
//!
//! Hardware dispatches CTAs greedily to SMs as resident slots free up. We
//! model each SM as `max_ctas_per_sm` independent slots and assign CTAs in
//! issue order to the earliest-finishing slot. The kernel's simulated cycle
//! count is the latest slot finish time — so a single long-running CTA (one
//! monstrous row in a row-wise decomposition) stretches the whole kernel,
//! which is precisely the imbalance pathology the paper's flat
//! decompositions eliminate.
//!
//! **Look-back.** A single-pass kernel links its CTAs: one publishes a
//! value (a carry, a partial) part-way through its program, and a later
//! one spins until that value is there ([`crate::Cta::publish`],
//! [`crate::Cta::look_back`]). `makespan_synced` follows those links: a
//! CTA's program after a look-back starts no earlier than the latest
//! publish it reads, and the CTA holds its slot while it waits. CTAs only
//! look back at CTAs issued before them, which the issue-order greedy
//! schedule has already placed, so the schedule never deadlocks.

use std::cell::RefCell;

use crate::device::DeviceProps;

/// Distinct values one CTA can publish (a carry, a dot partial).
pub const PUBLISH_SLOTS: usize = 2;

/// A point in a CTA's program where it joins other CTAs of its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncPoint {
    /// The CTA's value in `slot` becomes visible to later CTAs.
    Publish { slot: u8 },
    /// The CTA waits for the values CTAs `first..end` published in `slot`.
    LookBack { slot: u8, first: u32, end: u32 },
}

thread_local! {
    /// Reusable slot heap: `makespan` runs once per launch on the host hot
    /// path, and a per-call `BinaryHeap` allocation was the last allocating
    /// step of a warm launch.
    static SLOT_HEAP: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Reusable publish times of a linked launch, [`PUBLISH_SLOTS`] per CTA.
    static PUBLISHED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A publish time no CTA has reached.
const UNPUBLISHED: u64 = u64::MAX;

/// Restore the min-heap property for the root of `heap` (sift-down).
fn sift_down(heap: &mut [u64]) {
    let n = heap.len();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= n {
            break;
        }
        let r = l + 1;
        let smallest = if r < n && heap[r] < heap[l] { r } else { l };
        if heap[smallest] >= heap[i] {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
}

/// Greedy list-scheduling makespan of `per_cta_cycles` on the device.
///
/// Returns total kernel cycles. An empty grid costs nothing. CTAs are
/// assigned in issue order to the earliest-free slot; tied slots are
/// interchangeable (all carry the same free time), so the result does not
/// depend on which one the heap surfaces.
pub fn makespan(props: &DeviceProps, per_cta_cycles: &[u64]) -> u64 {
    let slots = (props.num_sms * props.max_ctas_per_sm).max(1);
    if per_cta_cycles.is_empty() {
        return 0;
    }
    SLOT_HEAP.with(|scratch| {
        let mut heap = scratch.borrow_mut();
        heap.clear();
        heap.resize(slots, 0u64);
        for &cycles in per_cta_cycles {
            // Pop-min + push == bump the root and restore the heap.
            heap[0] += cycles;
            sift_down(&mut heap);
        }
        heap.iter().copied().max().unwrap_or(0)
    })
}

/// [`makespan`] of a grid whose CTAs publish and look back: `points`
/// holds `(cta, at, point)` for every sync point, in CTA order and each
/// CTA's in program order, `at` being the cycles into the CTA (had it
/// never waited) where it reaches the point. Each CTA starts in the
/// earliest-free slot as before; a look-back holds it until the latest
/// publish among the CTAs it reads, and everything after the look-back
/// shifts by that wait. With no points this is [`makespan`].
///
/// # Panics
/// Panics if a CTA looks back at a CTA that is not earlier in the grid or
/// publishes nothing in the slot read.
#[inline]
pub(crate) fn makespan_synced(
    props: &DeviceProps,
    per_cta_cycles: &[u64],
    points: &[(usize, u64, SyncPoint)],
) -> u64 {
    if points.is_empty() {
        return makespan(props, per_cta_cycles);
    }
    let slots = (props.num_sms * props.max_ctas_per_sm).max(1);
    SLOT_HEAP.with(|heap| {
        PUBLISHED.with(|published| {
            let (mut heap, mut published) = (heap.borrow_mut(), published.borrow_mut());
            heap.clear();
            heap.resize(slots, 0u64);
            published.clear();
            published.resize(per_cta_cycles.len() * PUBLISH_SLOTS, UNPUBLISHED);
            let mut points = points.iter().peekable();
            for (cta, &cycles) in per_cta_cycles.iter().enumerate() {
                let mut clock = heap[0];
                let mut reached = 0;
                while let Some(&(_, at, point)) = points.next_if(|(id, ..)| *id == cta) {
                    clock += at - reached;
                    reached = at;
                    match point {
                        SyncPoint::Publish { slot } => {
                            published[cta * PUBLISH_SLOTS + slot as usize] = clock;
                        }
                        SyncPoint::LookBack { slot, first, end } => {
                            assert!(end as usize <= cta, "CTA {cta} looks back at a later CTA");
                            for j in first as usize..end as usize {
                                let t = published[j * PUBLISH_SLOTS + slot as usize];
                                assert!(
                                    t != UNPUBLISHED,
                                    "CTA {cta} looks back at CTA {j}, which publishes nothing in slot {slot}"
                                );
                                clock = clock.max(t);
                            }
                        }
                    }
                }
                heap[0] = clock + (cycles - reached);
                sift_down(&mut heap);
            }
            heap.iter().copied().max().unwrap_or(0)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device(slots: usize) -> DeviceProps {
        DeviceProps {
            num_sms: slots,
            max_ctas_per_sm: 1,
            ..DeviceProps::gtx_titan()
        }
    }

    #[test]
    fn empty_grid_is_free() {
        assert_eq!(makespan(&small_device(4), &[]), 0);
    }

    #[test]
    fn single_cta_costs_its_own_cycles() {
        assert_eq!(makespan(&small_device(4), &[123]), 123);
    }

    #[test]
    fn balanced_ctas_divide_evenly_across_slots() {
        // 8 CTAs of 10 cycles on 4 slots → 2 waves → 20 cycles.
        let cycles = vec![10u64; 8];
        assert_eq!(makespan(&small_device(4), &cycles), 20);
    }

    #[test]
    fn one_giant_cta_dominates_makespan() {
        // The imbalance pathology: total work 13 but makespan 10.
        let cycles = vec![10, 1, 1, 1];
        assert_eq!(makespan(&small_device(4), &cycles), 10);
    }

    #[test]
    fn issue_order_greedy_matches_hand_schedule() {
        // 2 slots, CTAs [4,3,2,1]: slot A gets 4, slot B gets 3, then B (free
        // at 3) gets 2 → 5, then A (free at 4) gets 1 → 5. Makespan 5.
        let cycles = vec![4, 3, 2, 1];
        assert_eq!(makespan(&small_device(2), &cycles), 5);
    }

    const PUBLISH: SyncPoint = SyncPoint::Publish { slot: 0 };
    const READ_CTA0: SyncPoint = SyncPoint::LookBack {
        slot: 0,
        first: 0,
        end: 1,
    };

    #[test]
    fn unlinked_grid_schedules_as_before() {
        let cycles = vec![4, 3, 2, 1];
        assert_eq!(makespan_synced(&small_device(2), &cycles, &[]), 5);
    }

    #[test]
    fn look_back_waits_for_a_late_publish() {
        // Two slots: CTA 1 reaches its look-back at 100 but CTA 0
        // publishes at 900, so its last 200 cycles run 900..1100.
        let points = [(0, 900, PUBLISH), (1, 100, READ_CTA0)];
        assert_eq!(
            makespan_synced(&small_device(2), &[1000, 300], &points),
            1100
        );
        // An early publish costs the reader nothing.
        let early = [(0, 50, PUBLISH), points[1]];
        assert_eq!(
            makespan_synced(&small_device(2), &[1000, 300], &early),
            1000
        );
    }

    #[test]
    fn a_wait_delays_the_waiters_own_publish_and_its_slot() {
        // One slot per CTA: CTA 1 waits 100..900 for CTA 0, so its
        // publish at offset 150 lands at 950 and it ends at 1100; CTA 2
        // (reading CTA 1) waits for that publish and ends at 960.
        let read_cta1 = SyncPoint::LookBack {
            slot: 0,
            first: 1,
            end: 2,
        };
        let points = [
            (0, 900, PUBLISH),
            (1, 100, READ_CTA0),
            (1, 150, PUBLISH),
            (2, 10, read_cta1),
        ];
        let cycles = [1000, 300, 20];
        assert_eq!(makespan_synced(&small_device(3), &cycles, &points), 1100);
        // On one slot each CTA starts after the last ends, by which time
        // everything it reads is published: the serial sum.
        assert_eq!(makespan_synced(&small_device(1), &cycles, &points), 1320);
    }

    #[test]
    #[should_panic(expected = "publishes nothing in slot 1")]
    fn reading_an_unpublished_slot_panics() {
        let read_slot1 = SyncPoint::LookBack {
            slot: 1,
            first: 0,
            end: 1,
        };
        makespan_synced(
            &small_device(2),
            &[20, 20],
            &[(0, 10, PUBLISH), (1, 5, read_slot1)],
        );
    }

    #[test]
    fn makespan_at_least_mean_load_and_at_most_serial() {
        let cycles: Vec<u64> = (1..100).collect();
        let m = makespan(&small_device(7), &cycles);
        let total: u64 = cycles.iter().sum();
        assert!(m >= total / 7);
        assert!(m <= total);
    }
}
