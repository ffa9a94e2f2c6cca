//! # snacknoc-trace — cycle-level tracing & timeline observability
//!
//! A deterministic, bounded-memory, structured event-tracing subsystem for
//! the SnackNoC reproduction. The simulator's aggregate counters (the
//! network's `NetStats` and the like) answer *how much*; this crate
//! answers *when* and *why*:
//!
//! * [`TracerHandle`] — the handle every producer (router pipeline, RCU
//!   datapath, CPM control loop) holds and records through at
//!   interesting boundaries. Its default, [`TracerHandle::Nop`], costs one
//!   branch per hook: the [`TracerHandle::record_with`] entry point takes
//!   a *closure*, so when tracing is off no event is even constructed, and
//!   trace-off runs are bit-identical to a build without this crate.
//! * [`RingTracer`] — per-component-class fixed-capacity ring buffers with
//!   drop counters, plus exact per-link hop counters that are immune to
//!   buffer exhaustion.
//! * [`export`] — Chrome trace-event (Perfetto-loadable) JSON with one
//!   process lane per component class.
//! * [`analysis`] — critical-path extraction (an exact tiling of the
//!   submit→finish interval into compute / ring-wait / VC-stall / spill /
//!   queue segments), link heatmaps and token-lifetime histograms.
//! * [`json`] — a dependency-free JSON parser used to self-validate
//!   emitted traces in CI smoke mode.
//!
//! ## Determinism contract
//!
//! Events carry only values the simulator already computes (cycle numbers,
//! node indices, dep ids). Buffers are plain `Vec`s filled in simulation
//! order; the link-counter map is a `BTreeMap`; export renders integers
//! only. Two runs of the same seed therefore emit byte-identical traces,
//! regardless of sweep worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analysis;
pub mod event;
pub mod export;
pub mod json;
pub mod tracer;

pub use analysis::{
    critical_path, token_lifetimes, CriticalPath, CycleHistogram, PathCategory, PathSegment,
};
pub use event::{ComponentClass, EventKind, FireDest, TraceEvent, NO_DEP};
pub use export::to_chrome_trace;
pub use json::{parse as parse_json, validate_chrome_trace, Json, TraceFileSummary};
pub use tracer::{RingTracer, TracerHandle};
