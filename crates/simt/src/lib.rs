//! # mps-simt — a virtual SIMT device
//!
//! This crate is the hardware substrate for the merge-path sparse kernel
//! reproduction. The original paper ran on a GTX Titan under CUDA 6.5; this
//! crate replaces the GPU with a *virtual* SIMT device that preserves the
//! properties the paper's evaluation depends on:
//!
//! * a **grid / CTA / warp / thread** execution hierarchy — kernels are
//!   written as per-CTA routines over "register tiles" (arrays indexed by
//!   thread id × items-per-thread), exactly the way CUB/ModernGPU kernels
//!   are structured;
//! * **block-wide primitives** (scan, segmented scan, reduction, radix sort,
//!   merge, strided↔blocked exchange) whose semantics are implemented in
//!   plain safe Rust and whose *costs* are charged to a per-CTA counter set;
//! * a **cost model** translating counters (DRAM transactions under a
//!   coalescing model, shared-memory ops, ALU ops, barriers) into per-CTA
//!   cycle estimates;
//! * a **wave scheduler** that assigns CTAs to streaming multiprocessors and
//!   reports the simulated kernel time. Load imbalance between CTAs — the
//!   central subject of the paper — shows up in the makespan exactly as it
//!   does on hardware;
//! * **look-back links** for single-pass kernels: a CTA publishes a value
//!   part-way through its program and a later CTA waits for it
//!   ([`Cta::publish`], [`Cta::look_back`]); the scheduler delays the
//!   reader until the publish.
//!
//! CTAs of a grid execute in parallel on the host via rayon; results are
//! deterministic because a CTA body never reads another CTA's output (a
//! look-back only prices the wait) and reductions over their outputs are
//! performed in CTA order.

pub mod block;
pub mod cost;
pub mod cta;
pub mod device;
pub mod grid;
pub mod sched;
pub mod trace;
pub mod warp;

pub use cost::{CostModel, Counters, SpmvWorkload};
pub use cta::Cta;
pub use device::{Device, DeviceProps};
pub use grid::{
    launch_map, launch_map_into, launch_map_into_phased, launch_map_named, launch_map_phased,
    price_ctas, LaunchBuffers, LaunchConfig, LaunchStats,
};
pub use trace::{with_phase, KernelRecord, Phase, PhaseEntry, PhaseLedger, PhaseReport, Tracer};
