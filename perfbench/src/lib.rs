//! The end-to-end TreeVQA benchmark: three closed-loop paper workloads, their
//! end-to-end metrics, correctness checks, and an outside-in per-layer ledger.  See
//! `NOTES.md` for the workloads' rationale and the layer → metric → workload map.

pub mod bench;
pub mod knobs;
pub mod ledger;
pub mod metrics;
pub mod os;
pub mod workload;
