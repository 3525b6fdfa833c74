//! Observability plane: deterministic tracing and metrics for the ICD
//! workspace.
//!
//! Two separated concerns:
//!
//! * [`trace`] — the **deterministic structured trace plane**. Events
//!   are stamped only with engine time and a push-assigned sequence
//!   number, never with wall clock, so a trace is itself a golden
//!   artifact: every run of the same `(config, seed)` emits
//!   **byte-identical** JSONL (`crates/swarm/tests/trace_parity.rs`
//!   pins the hashes).
//! * [`metrics`] — a dependency-free **metrics registry**: atomic
//!   counters, gauges, and log2-bucket histograms behind shared
//!   handles, snapshotted into a typed, JSON-exportable struct.
//!   Registries are `Sync` so the same type serves the single-threaded
//!   engine and the multi-threaded `icd-node` daemon.
//!
//! Every recorder is optional everywhere it can be installed: the hot
//! paths pay one `Option` discriminant check when nothing is installed
//! (the `perf_baseline` A/B pins the disabled-mode overhead at ≤ 2%).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{
    SyncTraceHandle, TraceBuf, TraceEvent, TraceHandle, TraceParseError, TraceRecord,
};
