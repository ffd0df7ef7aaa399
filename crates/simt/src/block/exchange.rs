//! Tile exchange: striped → blocked rearrangement through shared memory.
//!
//! Kernels load global data in *striped* order (thread `t` holds items
//! `t, t+T, t+2T, …` — coalesced) but operate on *blocked* order (thread
//! `t` holds items `t·I .. t·I+I` — contiguous). The exchange costs one
//! shared-memory store + load per item and two barriers; this is the
//! transpose the paper's SpMV reduction phase performs before its
//! segmented scan.

use crate::cta::Cta;

/// Charge the cost of a striped→blocked exchange of `items`
/// register-tile entries: one shared-memory store and load per item and
/// two barriers. The kernels keep their data in natural order on the
/// host, so only the price is modelled.
pub fn charge_exchange(cta: &mut Cta, items: usize) {
    cta.shmem(2 * items as u64);
    cta.sync();
    cta.sync();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_charges_shared_memory_and_syncs() {
        let mut c = Cta::new(0, 1, 4, 32);
        charge_exchange(&mut c, 128);
        assert_eq!(c.counters().shmem_ops, 256);
        assert_eq!(c.counters().syncs, 2);
    }
}
