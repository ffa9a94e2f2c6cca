//! Platform-level runtime knobs and the defaults they fall back on.

use super::SnackPlatform;
use std::fmt;

/// Platform-level runtime knobs: the hang detector's window and the
/// graceful-degradation retry budget. Installed with
/// [`SnackPlatform::set_platform_config`]; invalid values are rejected
/// with a typed [`PlatformConfigError`] instead of silently misbehaving.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlatformConfig {
    /// Cycles of zero forward progress [`SnackPlatform::run_kernel`]
    /// tolerates before aborting the attempt. Defaults to
    /// [`SnackPlatform::NO_PROGRESS_WINDOW`]; chaos tests shrink it so
    /// remap/failover escalation fires quickly, think-heavy closed-loop
    /// runs may grow it. Must be at least
    /// [`SnackPlatform::MIN_NO_PROGRESS_WINDOW`].
    pub no_progress_window: u64,
    /// Kernel-level submission attempts (the initial run plus
    /// remap/failover retries) before `run_kernel` gives up with
    /// [`super::PlatformError::Unrecoverable`]. At least 1, at most
    /// [`PlatformConfig::MAX_KERNEL_ATTEMPTS`].
    pub max_kernel_attempts: u32,
    /// Per-kernel cycle budget: how long a single kernel may run from
    /// submission before the caller should give up on it. Consumed by
    /// the multi-tenant service loop as its abort deadline (a dispatched
    /// kernel that outlives the cap is quarantined and counted against
    /// its tenant) and available to any `run_kernel` caller as the
    /// canonical budget instead of an ad-hoc magic number. Must be at
    /// least [`PlatformConfig::no_progress_window`].
    pub kernel_cycle_cap: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            no_progress_window: SnackPlatform::NO_PROGRESS_WINDOW,
            max_kernel_attempts: 4,
            kernel_cycle_cap: SnackPlatform::KERNEL_CYCLE_CAP,
        }
    }
}

impl PlatformConfig {
    /// Upper bound on [`PlatformConfig::max_kernel_attempts`]. Each
    /// attempt takes its home CPM's next namespace epoch
    /// ([`SnackPlatform::submit_kernel_epoch`]), and a CPM's epoch
    /// counter wraps after [`SnackPlatform::namespace_epochs`] epochs, at
    /// least 64 (the 8-bit namespace shared by up to 4 corner CPMs). At
    /// 32 attempts, no run reuses an epoch, so no straggler of an
    /// abandoned attempt can pass for a later attempt's token.
    pub const MAX_KERNEL_ATTEMPTS: u32 = 32;

    /// Checks the knobs: a window no smaller than
    /// [`SnackPlatform::MIN_NO_PROGRESS_WINDOW`] (zero or tiny windows
    /// would abort runs the watchdog was still legitimately recovering)
    /// and an attempt budget in `1..=MAX_KERNEL_ATTEMPTS`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), PlatformConfigError> {
        if self.no_progress_window < SnackPlatform::MIN_NO_PROGRESS_WINDOW {
            return Err(PlatformConfigError::WindowTooSmall {
                window: self.no_progress_window,
                min: SnackPlatform::MIN_NO_PROGRESS_WINDOW,
            });
        }
        if self.max_kernel_attempts == 0 || self.max_kernel_attempts > Self::MAX_KERNEL_ATTEMPTS {
            return Err(PlatformConfigError::BadAttemptBudget {
                attempts: self.max_kernel_attempts,
                max: Self::MAX_KERNEL_ATTEMPTS,
            });
        }
        if self.kernel_cycle_cap < self.no_progress_window {
            return Err(PlatformConfigError::CycleCapBelowWindow {
                cap: self.kernel_cycle_cap,
                window: self.no_progress_window,
            });
        }
        Ok(())
    }
}

/// An invalid [`PlatformConfig`], rejected before installation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum PlatformConfigError {
    /// The no-progress window is zero or smaller than the deepest
    /// recovery backoff the watchdog may legitimately take.
    WindowTooSmall {
        /// The rejected window.
        window: u64,
        /// The smallest accepted window.
        min: u64,
    },
    /// The kernel-attempt budget is zero or exceeds
    /// [`PlatformConfig::MAX_KERNEL_ATTEMPTS`].
    BadAttemptBudget {
        /// The rejected budget.
        attempts: u32,
        /// The largest accepted budget.
        max: u32,
    },
    /// [`PlatformConfig::kernel_cycle_cap`] is smaller than the
    /// no-progress window — the hang detector could never fire before
    /// the cap, making the cap the *only* backstop and the window dead
    /// configuration.
    CycleCapBelowWindow {
        /// The rejected cap.
        cap: u64,
        /// The configured no-progress window the cap must cover.
        window: u64,
    },
}

impl fmt::Display for PlatformConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformConfigError::WindowTooSmall { window, min } => {
                write!(f, "no-progress window {window} is below the minimum {min}")
            }
            PlatformConfigError::BadAttemptBudget { attempts, max } => {
                write!(f, "kernel attempt budget {attempts} is outside 1..={max}")
            }
            PlatformConfigError::CycleCapBelowWindow { cap, window } => {
                write!(f, "cycle cap {cap} is below the no-progress window {window}")
            }
        }
    }
}

impl std::error::Error for PlatformConfigError {}

impl SnackPlatform {
    /// Default for [`PlatformConfig::no_progress_window`]: how long
    /// `run_kernel` tolerates zero forward progress before aborting an
    /// attempt. Generous enough to cover the deepest recovery backoff
    /// (`max_retries * backoff` plus a full ring circulation) at default
    /// settings.
    pub const NO_PROGRESS_WINDOW: u64 = 50_000;

    /// Smallest accepted [`PlatformConfig::no_progress_window`]: it must
    /// comfortably exceed the deepest default recovery backoff
    /// (`max_retries * backoff = 1024` cycles) plus a full ring
    /// circulation, or the hang detector would abort runs the watchdog
    /// was still legitimately recovering.
    pub const MIN_NO_PROGRESS_WINDOW: u64 = 2_048;

    /// Default for [`PlatformConfig::kernel_cycle_cap`]: the per-kernel
    /// cycle budget historically hardcoded at `run_kernel` call sites
    /// (generous enough for every paper kernel at its simulated size,
    /// including watchdog recovery and graceful-degradation retries).
    pub const KERNEL_CYCLE_CAP: u64 = 50_000_000;

    /// The deadline of [`SnackPlatform::run_multiprogram_capped`]:
    /// effectively unbounded, so the workload's completion ends the run.
    pub const MULTIPROGRAM_CYCLE_CAP: u64 = u64::MAX / 2;
}
