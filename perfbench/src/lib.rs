//! The repository benchmark: three closed-loop `Ninf_call` workloads against
//! an in-process reactor-core server, end-to-end metrics from untraced runs
//! and a per-layer latency budget from traced ones. See `BENCHMARK.md`.

pub mod bench;
mod probe;
mod report;
mod rig;
mod stats;
pub mod workload;
