//! Latency metrics, folded into the `memsync-trace` registry.
//!
//! The produce-to-consume [`LatencyRecorder`] used to live here; it moved
//! to [`memsync_trace::latency`] when the cycle-level trace subsystem was
//! introduced, and the engine now exposes it through a full
//! [`MetricsRegistry`] (counters, histograms, high-water marks) instead of
//! a bare recorder. This module re-exports the types so existing
//! `memsync_sim::metrics::…` paths keep working.

pub use memsync_trace::{Histogram, LatencyRecorder, LatencyStats, MetricsRegistry, Summary};
