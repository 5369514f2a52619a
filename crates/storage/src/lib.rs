//! Storage device models and the CacheBlend delay/cost estimators (§5.1).
//!
//! The paper's loading controller reasons with two analytic estimators —
//! `T_recompute(r%, LLM, L) = r% × Prefill(LLM, L)` and
//! `T_load(LLM, L, device) = PerTokenKVSize(LLM) × L / Throughput(device)` —
//! plus a storage-cost estimator. This crate implements those models at
//! *paper scale*: the real Mistral-7B/Yi-34B/Llama-70B layer counts and KV
//! sizes, an A40-class GPU profile, and the device throughputs the paper
//! measures (4.8 GB/s NVMe, a 4 Gb/s slow disk, CPU RAM). The tiny
//! executable models in `cb-model` produce quality; this crate produces
//! TTFT, keeping each where it can be faithful.
//!
//! Since the tiered-storage subsystem, this crate also owns the *real*
//! byte stores the tiered `cb-kv::KvStore` places entries on: the
//! [`backend::StorageBackend`] trait with an in-RAM [`backend::MemBackend`]
//! and the persistent [`segment_log::SegmentLogBackend`] (packed
//! append-only logs, group-committed write-behind, crash-safe replay),
//! plus the shared [`checksum::fnv64`] integrity hash and a
//! [`backend::Throttle`] that emulates the §5.2 device grid with real
//! sleeps.
//!
//! Modules:
//!
//! - [`device`] — storage device catalogue (throughput, latency, $/GB·mo).
//! - [`perf`] — paper-scale model specs, GPU profile, prefill/recompute/
//!   load delay estimators, and pipelined TTFT.
//! - [`checksum`] — the workspace's shared word-wise FNV checksum.
//! - [`backend`] — the [`backend::StorageBackend`] tier-store trait and
//!   the RAM implementation.
//! - [`segment_log`] — the persistent backend: append-only segment logs,
//!   group commit, startup replay with torn-tail recovery.
//! - [`compact`] — background compaction for the segment log.

pub mod backend;
pub mod checksum;
pub(crate) mod compact;
pub mod device;
pub mod perf;
pub mod segment_log;

// The disk tier's black-box contract tests (the segment log is its only
// layout).
#[cfg(test)]
#[path = "disk_tier_tests.rs"]
mod disk;

pub use backend::{
    BackendError, IoOps, MaintenanceStats, MemBackend, ReadStream, StorageBackend, Throttle,
};
pub use checksum::fnv64;
pub use device::{DeviceKind, DeviceSpec};
pub use perf::{GpuSpec, PaperModel, PerfModel};
pub use segment_log::{LogStats, SegmentLogBackend, SegmentLogConfig};
