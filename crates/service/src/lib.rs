//! # snacknoc-service
//!
//! The SnackNoC platform as a *served system*: an always-on, deterministic
//! service loop that accepts kernel submissions from many simulated
//! tenants, classes them by QoS, admits or rejects them against bounded
//! per-class queues, dispatches them onto the platform's CPM slots under
//! namespace-epoch isolation, and accounts per-tenant SLO latency,
//! throughput and fairness.
//!
//! The paper pitches the communication layer as a *platform* for offloaded
//! kernels; `run_kernel`/`run_multiprogram` are one-shot batch calls. This
//! crate closes the gap (ROADMAP item 3): a long-running scheduler in the
//! spirit of MultiNoC's multiprogrammed NoC-resident compute, with the
//! paper's Fig. 12 priority-arbitration experiment recast as one policy of
//! a real service ([`presets::fig12_qos`]).
//!
//! Modules:
//!
//! * [`qos`] — QoS classes, per-class queue policies, typed admission
//!   errors.
//! * [`tenant`] — tenant specifications and open/closed-loop arrival
//!   processes.
//! * [`service`] — the service loop, its validated configuration and the
//!   per-tenant/per-class report.
//! * [`presets`] — ready-made scenarios (three-class demo, SLO sweep, the
//!   Fig. 12 QoS experiment, decentralized-CPM scaling).
//!
//! ## Determinism
//!
//! A service run is a pure function of its [`service::ServiceSpec`]: every
//! scheduling decision is keyed on the platform cycle, seeded RNG streams
//! and index-ordered iteration — never on host time, hashing order or
//! thread interleaving. The loop composes with both stepping modes: clock
//! jumps are capped at the next service event (pending arrival, abort
//! deadline, drain deadline), so both modes observe arrivals, dispatches,
//! completions and aborts at identical cycles and the final report is
//! bit-identical. The determinism suite proves this for fixed and
//! randomized schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod presets;
pub mod qos;
pub mod service;
pub mod tenant;

pub use presets::{decentralized_cpm, fig12_qos, slo_sweep, three_class_demo};
pub use qos::{AdmissionError, ClassPolicy, QosClass};
pub use service::{
    run_service, ClassReport, ServiceConfigError, ServiceError, ServiceReport, ServiceSpec,
    TenantReport,
};
pub use snacknoc_noc::Stepping;
pub use tenant::{Arrivals, TenantSpec};
