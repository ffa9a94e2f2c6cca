//! The platform's error types: why a platform could not be built, and
//! how a kernel run failed.

use crate::cpm::{CpmConfigError, SubmitError};
use crate::lifecycle::DegradationReport;
use snacknoc_noc::{ConfigError, StallReport};
use std::fmt;

/// Error building a [`super::SnackPlatform`] or running a kernel on it.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum PlatformError {
    /// Invalid NoC configuration.
    Config(ConfigError),
    /// The mesh has no Hamiltonian ring for transient data
    /// (needs at least one even side).
    Ring(snacknoc_noc::topology::RingError),
    /// The configuration lacks the dedicated SnackNoC virtual network
    /// (needs at least 3 vnets).
    MissingSnackVnet,
    /// A decentralized platform asked for more CPMs than the mesh has
    /// memory-controller corners.
    BadCpmCount {
        /// CPMs requested.
        requested: usize,
        /// Corners available.
        corners: usize,
    },
    /// The CPM configuration failed validation (bad hysteresis thresholds,
    /// out-of-range fractions, or zero capacities).
    CpmConfig(CpmConfigError),
    /// The CPM rejected the kernel at submission time.
    Submit(SubmitError),
    /// The kernel made no forward progress for a full watchdog window and
    /// was aborted. Carries a structured snapshot of where the network's
    /// in-flight state was stuck.
    KernelTimeout {
        /// Cycles elapsed since submission when the platform gave up.
        cycles: u64,
        /// In-flight network state at abort time.
        stall: Box<StallReport>,
    },
    /// Permanent faults exhausted every graceful-degradation avenue:
    /// the named resource ran out before any remapped/failed-over attempt
    /// could complete. Unlike [`PlatformError::KernelTimeout`] this is a
    /// *verdict* — retrying on the same platform cannot succeed.
    Unrecoverable {
        /// The resource that ran out.
        resource: DegradedResource,
        /// Kernel-level submission attempts completed before giving up.
        attempts: u32,
        /// Cycles elapsed since the original submission.
        cycles: u64,
        /// The degradation work done before giving up: remaps, failovers,
        /// watchdog retries and the cycles of every abandoned attempt
        /// (`final_attempt_cycles` is 0, since none completed).
        report: DegradationReport,
        /// In-flight network state when the platform gave up.
        stall: Box<StallReport>,
    },
}

/// Which resource ran out when graceful degradation failed (the payload of
/// [`PlatformError::Unrecoverable`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DegradedResource {
    /// Every candidate RCU node is permanently dead: there is nothing
    /// left to remap kernel blocks onto.
    Rcus,
    /// The home CPM's node died and no live, idle standby corner CPM
    /// remains to fail over to.
    StandbyCpms,
    /// The kernel-attempt budget
    /// ([`super::PlatformConfig::max_kernel_attempts`]) was spent without
    /// a completed run.
    RetryBudget,
}

impl fmt::Display for DegradedResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DegradedResource::Rcus => "live RCUs",
            DegradedResource::StandbyCpms => "standby CPMs",
            DegradedResource::RetryBudget => "kernel retry budget",
        };
        f.write_str(s)
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Config(e) => write!(f, "noc config: {e}"),
            PlatformError::Ring(e) => write!(f, "transient ring: {e}"),
            PlatformError::MissingSnackVnet => {
                write!(f, "platform needs >= 3 vnets (requests, responses, snack)")
            }
            PlatformError::BadCpmCount { requested, corners } => {
                write!(f, "requested {requested} cpms but the mesh has {corners} corners")
            }
            PlatformError::CpmConfig(e) => write!(f, "cpm config: {e}"),
            PlatformError::Submit(e) => write!(f, "kernel submission: {e}"),
            PlatformError::KernelTimeout { cycles, stall } => {
                write!(f, "kernel timeout after {cycles} cycles: {stall}")
            }
            PlatformError::Unrecoverable { resource, attempts, cycles, stall, .. } => write!(
                f,
                "unrecoverable after {attempts} attempt(s) / {cycles} cycles: \
                 out of {resource}: {stall}"
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<ConfigError> for PlatformError {
    fn from(e: ConfigError) -> Self {
        PlatformError::Config(e)
    }
}

impl From<SubmitError> for PlatformError {
    fn from(e: SubmitError) -> Self {
        PlatformError::Submit(e)
    }
}

impl From<CpmConfigError> for PlatformError {
    fn from(e: CpmConfigError) -> Self {
        PlatformError::CpmConfig(e)
    }
}
