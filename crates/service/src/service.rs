//! The service loop: validated configuration, deterministic scheduling,
//! and the per-tenant/per-class SLO report.

use crate::qos::{AdmissionError, ClassPolicy, QosClass};
use crate::tenant::{Arrivals, TenantSpec};
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{
    CompiledKernel, CpmState, PlatformConfig, PlatformConfigError, PlatformError, SnackPlatform,
};
use snacknoc_noc::{FaultPlan, FaultPlanError, LatencyHistogram, NocConfig};
use snacknoc_prng::Rng;
use snacknoc_workloads::BenchmarkProfile;
use std::collections::VecDeque;
use std::fmt;

/// Complete description of one service run. A run is a pure function of
/// its spec: same spec, same report, in every stepping mode (chosen by
/// `noc.stepping`).
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// NoC configuration (enable the paper's priority arbitration here to
    /// get the Fig. 12 QoS behaviour at the network level), stepping mode
    /// included.
    pub noc: NocConfig,
    /// Corner CPMs to serve from (1..=4): the admission-controlled
    /// resource pool.
    pub cpm_count: usize,
    /// Per-class queue policies, indexed by [`QosClass::rank`].
    pub policies: [ClassPolicy; 3],
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Cycle at which arrival generation stops (must be nonzero).
    pub horizon: u64,
    /// Extra cycles after the horizon to drain queued/running work before
    /// the loop gives up and counts leftovers as residual.
    pub drain: u64,
    /// Platform knobs; [`PlatformConfig::kernel_cycle_cap`] is the
    /// service's per-kernel abort deadline.
    pub platform: PlatformConfig,
    /// Master seed: forked per tenant for arrival gaps and kernel inputs.
    pub seed: u64,
    /// Optional CMP workload run concurrently on the same platform
    /// (profile, workload seed) — the Fig. 12 interference scenario.
    pub workload: Option<(BenchmarkProfile, u64)>,
    /// Optional fault plan (dead CPMs/RCUs/links) the service must serve
    /// through.
    pub fault_plan: Option<FaultPlan>,
}

impl ServiceSpec {
    /// A minimal spec over the given tenants with library defaults
    /// everywhere else: DAPPER 4×4 mesh, one CPM, default policies, a
    /// 40k-cycle horizon with a 20k-cycle drain.
    pub fn new(tenants: Vec<TenantSpec>, seed: u64) -> Self {
        ServiceSpec {
            noc: NocConfig::dapper(),
            cpm_count: 1,
            policies: [ClassPolicy::default(); 3],
            tenants,
            horizon: 40_000,
            drain: 20_000,
            platform: PlatformConfig::default(),
            seed,
            workload: None,
            fault_plan: None,
        }
    }

    /// Checks the spec, returning the first violation found.
    ///
    /// # Errors
    ///
    /// See [`ServiceConfigError`].
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        if self.tenants.is_empty() {
            return Err(ServiceConfigError::NoTenants);
        }
        if self.horizon == 0 {
            return Err(ServiceConfigError::ZeroHorizon);
        }
        for class in QosClass::ALL {
            if self.policies[class.rank()].aging_threshold == 0 {
                return Err(ServiceConfigError::ZeroAging { class });
            }
        }
        for t in &self.tenants {
            let bad = t.size == 0
                || match t.arrivals {
                    Arrivals::Open { mean_gap } => mean_gap == 0,
                    // Zero think would let a rejected closed-loop tenant
                    // re-arrive within the same admission pass, forever.
                    Arrivals::Closed { think, inflight } => inflight == 0 || think == 0,
                };
            if bad {
                return Err(ServiceConfigError::BadTenant { name: t.name.clone() });
            }
        }
        self.platform.validate().map_err(ServiceConfigError::Platform)?;
        Ok(())
    }
}

/// An invalid [`ServiceSpec`], rejected before the platform is built.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ServiceConfigError {
    /// The tenant list is empty.
    NoTenants,
    /// The arrival horizon is zero — the service would do nothing.
    ZeroHorizon,
    /// A class policy has a zero aging threshold (aging divides by it).
    ZeroAging {
        /// The offending class.
        class: QosClass,
    },
    /// A tenant has a zero kernel size, zero open-loop gap or zero
    /// closed-loop window.
    BadTenant {
        /// The offending tenant.
        name: String,
    },
    /// The embedded platform config failed its own validation.
    Platform(PlatformConfigError),
}

impl fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceConfigError::NoTenants => write!(f, "service spec has no tenants"),
            ServiceConfigError::ZeroHorizon => write!(f, "arrival horizon is zero"),
            ServiceConfigError::ZeroAging { class } => {
                write!(f, "{class} policy has a zero aging threshold")
            }
            ServiceConfigError::BadTenant { name } => {
                write!(f, "tenant {name}: zero kernel size, arrival gap or inflight window")
            }
            ServiceConfigError::Platform(e) => write!(f, "platform config: {e}"),
        }
    }
}

/// A service run that could not start (configuration or platform
/// construction failed). Admission rejections are *not* errors — they are
/// counted in the report.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The spec failed validation.
    Config(ServiceConfigError),
    /// The platform rejected its configuration.
    Platform(PlatformError),
    /// The fault plan was rejected.
    FaultPlan(FaultPlanError),
    /// A tenant's kernel failed to build or compile.
    Kernel(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "invalid service spec: {e}"),
            ServiceError::Platform(e) => write!(f, "platform: {e}"),
            ServiceError::FaultPlan(e) => write!(f, "fault plan: {e}"),
            ServiceError::Kernel(e) => write!(f, "kernel: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-tenant accounting for one service run.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name (from the spec).
    pub name: String,
    /// Tenant class (from the spec).
    pub class: QosClass,
    /// Arrivals presented to admission control.
    pub submitted: u64,
    /// Arrivals accepted into a class queue.
    pub admitted: u64,
    /// Rejections: class queue at capacity.
    pub rejected_full: u64,
    /// Rejections: class disabled (zero capacity).
    pub rejected_disabled: u64,
    /// Rejections: every CPM permanently dead.
    pub rejected_dead: u64,
    /// Kernels run to completion with results collected.
    pub completed: u64,
    /// Kernels aborted at the per-kernel cycle cap.
    pub aborted: u64,
    /// Jobs still queued or running when the loop ended.
    pub residual: u64,
    /// Execution cycles actually served (sum over completions) — the
    /// fairness metric's resource share.
    pub service_cycles: u64,
    /// Submission-to-writeback latency distribution (queue wait plus
    /// execution) over completions.
    pub hist: LatencyHistogram,
}

impl TenantReport {
    fn new(spec: &TenantSpec) -> Self {
        TenantReport {
            name: spec.name.clone(),
            class: spec.class,
            submitted: 0,
            admitted: 0,
            rejected_full: 0,
            rejected_disabled: 0,
            rejected_dead: 0,
            completed: 0,
            aborted: 0,
            residual: 0,
            service_cycles: 0,
            hist: LatencyHistogram::new(),
        }
    }

    /// Total rejections across all admission-error kinds.
    pub fn rejected(&self) -> u64 {
        self.rejected_full + self.rejected_disabled + self.rejected_dead
    }
}

/// Per-class aggregate of [`TenantReport`]s.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// The class.
    pub class: QosClass,
    /// Sum of tenant `submitted`.
    pub submitted: u64,
    /// Sum of tenant `admitted`.
    pub admitted: u64,
    /// Sum of tenant rejections.
    pub rejected: u64,
    /// Sum of tenant `completed`.
    pub completed: u64,
    /// Sum of tenant `aborted`.
    pub aborted: u64,
    /// Sum of tenant `residual`.
    pub residual: u64,
    /// Sum of tenant `service_cycles`.
    pub service_cycles: u64,
    /// Merged latency distribution.
    pub hist: LatencyHistogram,
}

/// The outcome of one service run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Final platform cycle when the loop ended.
    pub cycles: u64,
    /// Per-tenant accounting, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Conservation/consistency violations (empty on a healthy run):
    /// every submission must be admitted or rejected, every admission
    /// completed, aborted or residual, and the platform's own completion
    /// counter must agree with the service's.
    pub violations: Vec<String>,
}

impl ServiceReport {
    /// Aggregates the tenants of one class.
    pub fn class_report(&self, class: QosClass) -> ClassReport {
        let mut c = ClassReport {
            class,
            submitted: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            aborted: 0,
            residual: 0,
            service_cycles: 0,
            hist: LatencyHistogram::new(),
        };
        for t in self.tenants.iter().filter(|t| t.class == class) {
            c.submitted += t.submitted;
            c.admitted += t.admitted;
            c.rejected += t.rejected();
            c.completed += t.completed;
            c.aborted += t.aborted;
            c.residual += t.residual;
            c.service_cycles += t.service_cycles;
            c.hist.merge(&t.hist);
        }
        c
    }

    /// All three class aggregates, highest priority first.
    pub fn classes(&self) -> [ClassReport; 3] {
        QosClass::ALL.map(|c| self.class_report(c))
    }

    /// Total completions across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total rejections across tenants.
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected()).sum()
    }

    /// Jain's fairness index over per-tenant service cycles: 1.0 when
    /// every tenant received the same execution-cycle share, approaching
    /// `1/n` when one tenant monopolized the platform. 1.0 by convention
    /// when nothing was served.
    pub fn fairness(&self) -> f64 {
        let n = self.tenants.len() as f64;
        let sum: f64 = self.tenants.iter().map(|t| t.service_cycles as f64).sum();
        if sum == 0.0 {
            return 1.0;
        }
        let sumsq: f64 = self.tenants.iter().map(|t| (t.service_cycles as f64).powi(2)).sum();
        (sum * sum) / (n * sumsq)
    }

    /// A deterministic 64-bit digest of everything observable in the
    /// report: final cycle, every per-tenant counter, the latency
    /// percentiles and the violation count. Two runs of the same spec —
    /// in any stepping mode, from any sweep-worker count — must produce
    /// equal fingerprints; the determinism suite asserts exactly that.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = eat(h, self.cycles);
        h = eat(h, self.violations.len() as u64);
        for t in &self.tenants {
            for v in [
                t.class.rank() as u64,
                t.submitted,
                t.admitted,
                t.rejected_full,
                t.rejected_disabled,
                t.rejected_dead,
                t.completed,
                t.aborted,
                t.residual,
                t.service_cycles,
                t.hist.samples(),
                t.hist.percentile(50.0),
                t.hist.percentile(90.0),
                t.hist.percentile(99.0),
            ] {
                h = eat(h, v);
            }
        }
        h
    }
}

/// A queued unit of work: one admitted submission.
#[derive(Clone, Copy, Debug)]
struct Job {
    tenant: usize,
    submit: u64,
    seq: u64,
}

/// Runs the service described by `spec` to completion and returns its
/// report.
///
/// The loop, per iteration at platform cycle `now`, in this fixed order:
/// collect completions (CPM index order) → abort kernels past the
/// per-kernel cycle cap → admit arrivals due at or before `now` (tenant
/// index order) → dispatch queued jobs onto idle live CPMs (aged class
/// priority, FIFO within class) → advance the platform one step, or
/// one clock jump capped at the next service event. Every decision is
/// keyed on mode-invariant quantities (completion cycles are derived from
/// the CPM's writeback cycle, not the observation cycle), so the report is
/// bit-identical across both stepping modes.
///
/// # Errors
///
/// Returns [`ServiceError`] when the spec is invalid or the platform
/// cannot be built; admission rejections and aborts are reported, not
/// errored.
pub fn run_service(spec: &ServiceSpec) -> Result<ServiceReport, ServiceError> {
    spec.validate().map_err(ServiceError::Config)?;
    let mut platform = SnackPlatform::with_cpm_count(spec.noc.clone(), spec.cpm_count)
        .map_err(ServiceError::Platform)?;
    platform
        .set_platform_config(spec.platform)
        .map_err(|e| ServiceError::Config(ServiceConfigError::Platform(e)))?;
    if let Some(plan) = &spec.fault_plan {
        platform.set_fault_plan(plan.clone()).map_err(ServiceError::FaultPlan)?;
    }
    if let Some((profile, wseed)) = &spec.workload {
        platform.attach_workload(profile, *wseed);
    }

    // One compiled kernel per tenant, reused for every submission.
    let mapper = MapperConfig::for_mesh(platform.mesh());
    let mut kernels: Vec<CompiledKernel> = Vec::with_capacity(spec.tenants.len());
    for (i, t) in spec.tenants.iter().enumerate() {
        let built = build(t.kernel, t.size, spec.seed.wrapping_add(i as u64 * 0x9e37_79b9));
        let compiled = built
            .context
            .compile(built.root, &mapper)
            .map_err(|e| ServiceError::Kernel(format!("{}: {e}", t.name)))?;
        kernels.push(compiled);
    }

    let n = spec.tenants.len();
    let cpms = platform.cpm_count();
    let epochs_max = platform.namespace_epochs();
    let kernel_cap = spec.platform.kernel_cycle_cap;
    let drain_deadline = spec.horizon.saturating_add(spec.drain);

    // Forked per-tenant RNG streams: tenant i's arrival gaps are
    // independent of every other tenant's (common-random-numbers style).
    let mut master = Rng::new(spec.seed);
    let mut gap_rngs: Vec<Rng> = (0..n).map(|_| master.fork()).collect();

    // Pending arrival times per tenant, kept non-decreasing: open-loop
    // tenants hold exactly one future arrival; closed-loop tenants hold
    // one per free inflight slot.
    let mut arrivals: Vec<VecDeque<u64>> = spec
        .tenants
        .iter()
        .map(|t| match t.arrivals {
            Arrivals::Open { .. } => VecDeque::from([0u64]),
            Arrivals::Closed { inflight, .. } => (0..u64::from(inflight)).collect(),
        })
        .collect();

    let mut queues: [VecDeque<Job>; 3] = [VecDeque::new(), VecDeque::new(), VecDeque::new()];
    let mut running: Vec<Option<Job>> = vec![None; cpms];
    let mut dispatch_at = vec![0u64; cpms];
    let mut epoch = vec![0u32; cpms];
    let mut seq = 0u64;
    let mut reports: Vec<TenantReport> = spec.tenants.iter().map(TenantReport::new).collect();
    let mut violations: Vec<String> = Vec::new();

    // Re-arms a closed-loop tenant after a completion, abort or
    // rejection: the replacement arrival lands after its think time,
    // unless arrival generation has passed the horizon.
    let rearm = |arrivals: &mut Vec<VecDeque<u64>>, t: usize, at: u64, horizon: u64| {
        if let Arrivals::Closed { think, .. } = spec.tenants[t].arrivals {
            let next = at.saturating_add(think);
            if next < horizon {
                arrivals[t].push_back(next);
            }
        }
    };

    loop {
        let now = platform.cycle();

        // (1) Completions, CPM index order. The completion cycle is the
        // CPM's writeback cycle (dispatch + run.cycles), identical in
        // every stepping mode regardless of when the poll observes it.
        for i in 0..cpms {
            let Some(job) = running[i] else { continue };
            if let Some(run) = platform.take_kernel_results_from(i) {
                running[i] = None;
                let done_at = dispatch_at[i] + run.cycles;
                let r = &mut reports[job.tenant];
                r.completed += 1;
                r.service_cycles += run.cycles;
                r.hist.record(done_at - job.submit);
                rearm(&mut arrivals, job.tenant, done_at, spec.horizon);
            }
        }

        // (2) Per-kernel cycle cap: quarantine overdue kernels.
        for i in 0..cpms {
            let Some(job) = running[i] else { continue };
            if now.saturating_sub(dispatch_at[i]) >= kernel_cap {
                platform.abort_kernel_on(i);
                running[i] = None;
                reports[job.tenant].aborted += 1;
                rearm(&mut arrivals, job.tenant, now, spec.horizon);
            }
        }

        // (3) Admission, tenant index order.
        let all_dead = (0..cpms).all(|i| platform.cpm_node_dead(i));
        for t in 0..n {
            while arrivals[t].front().is_some_and(|&a| a <= now) {
                arrivals[t].pop_front();
                let class = spec.tenants[t].class;
                let pol = spec.policies[class.rank()];
                reports[t].submitted += 1;
                let verdict = if pol.queue_capacity == 0 {
                    Err(AdmissionError::ClassDisabled { class })
                } else if all_dead {
                    Err(AdmissionError::NoLiveCpm)
                } else if queues[class.rank()].len() >= pol.queue_capacity {
                    Err(AdmissionError::QueueFull { class, capacity: pol.queue_capacity })
                } else {
                    Ok(())
                };
                match verdict {
                    Ok(()) => {
                        reports[t].admitted += 1;
                        queues[class.rank()].push_back(Job { tenant: t, submit: now, seq });
                        seq += 1;
                    }
                    Err(AdmissionError::QueueFull { .. }) => {
                        reports[t].rejected_full += 1;
                        rearm(&mut arrivals, t, now, spec.horizon);
                    }
                    Err(AdmissionError::ClassDisabled { .. }) => {
                        reports[t].rejected_disabled += 1;
                        rearm(&mut arrivals, t, now, spec.horizon);
                    }
                    Err(_) => {
                        reports[t].rejected_dead += 1;
                        rearm(&mut arrivals, t, now, spec.horizon);
                    }
                }
                if let Arrivals::Open { mean_gap } = spec.tenants[t].arrivals {
                    let next = now + 1 + gap_rngs[t].range(0..2 * mean_gap);
                    if next < spec.horizon {
                        arrivals[t].push_back(next);
                    }
                }
            }
        }

        // (4) Dispatch: fill idle live CPM slots from the class-queue
        // heads. Effective rank = class rank minus one step per full
        // aging threshold waited; ties broken by global submission order
        // (FIFO within a class by construction).
        while let Some(slot) = (0..cpms).find(|&i| {
            running[i].is_none()
                && platform.cpm_at(i).state() == CpmState::Idle
                && !platform.cpm_node_dead(i)
        }) {
            let mut best: Option<(i64, u64, usize)> = None;
            for (c, q) in queues.iter().enumerate() {
                let Some(job) = q.front() else { continue };
                let aged = ((now - job.submit) / spec.policies[c].aging_threshold) as i64;
                let key = (c as i64 - aged, job.seq, c);
                if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
            let Some((_, _, c)) = best else { break };
            let Some(job) = queues[c].pop_front() else { break };
            match platform.submit_kernel_epoch(slot, epoch[slot], &kernels[job.tenant]) {
                Ok(()) => {
                    epoch[slot] = (epoch[slot] + 1) % epochs_max;
                    dispatch_at[slot] = now;
                    running[slot] = Some(job);
                }
                Err(e) => {
                    // Admission checked the slot was idle and the epoch
                    // in range — a rejection here is a real bug.
                    violations.push(format!("dispatch to cpm {slot} failed at cycle {now}: {e}"));
                    reports[job.tenant].aborted += 1;
                    rearm(&mut arrivals, job.tenant, now, spec.horizon);
                }
            }
        }

        // (5) Termination, then advance. Jumps are capped at the next
        // service event, so no mode can skip a cycle the service must
        // act on.
        let queued: usize = queues.iter().map(VecDeque::len).sum();
        let running_count = running.iter().flatten().count();
        let next_arrival = arrivals.iter().filter_map(|a| a.front().copied()).min();
        if running_count == 0 && (queued == 0 || all_dead) && next_arrival.is_none() {
            break;
        }
        if now >= drain_deadline {
            break;
        }
        let mut cap = drain_deadline;
        if let Some(a) = next_arrival {
            cap = cap.min(a);
        }
        for i in 0..cpms {
            if running[i].is_some() {
                cap = cap.min(dispatch_at[i].saturating_add(kernel_cap));
            }
        }
        platform.step_or_jump(cap.max(now + 1));
    }

    // Leftovers: queued and still-running jobs are residual.
    for q in &queues {
        for job in q {
            reports[job.tenant].residual += 1;
        }
    }
    for job in running.iter().flatten() {
        reports[job.tenant].residual += 1;
    }

    // Conservation checks: these hold structurally; a violation means the
    // scheduler lost or double-counted a submission.
    for r in &reports {
        if r.submitted != r.admitted + r.rejected() {
            violations.push(format!(
                "{}: submitted {} != admitted {} + rejected {}",
                r.name,
                r.submitted,
                r.admitted,
                r.rejected()
            ));
        }
        if r.admitted != r.completed + r.aborted + r.residual {
            violations.push(format!(
                "{}: admitted {} != completed {} + aborted {} + residual {}",
                r.name, r.admitted, r.completed, r.aborted, r.residual
            ));
        }
    }
    let total_completed: u64 = reports.iter().map(|r| r.completed).sum();
    if platform.kernels_completed() != total_completed {
        violations.push(format!(
            "platform counted {} completions, service counted {total_completed}",
            platform.kernels_completed()
        ));
    }

    Ok(ServiceReport { cycles: platform.cycle(), tenants: reports, violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::three_class_demo;
    use snacknoc_noc::{ConfigError, Stepping};
    use snacknoc_workloads::kernels::Kernel;

    fn one_tenant(class: QosClass, arrivals: Arrivals) -> ServiceSpec {
        let tenants = vec![TenantSpec::new("t0", class, Kernel::Mac, 32, arrivals)];
        let mut spec = ServiceSpec::new(tenants, 11);
        spec.horizon = 20_000;
        spec.drain = 20_000;
        spec
    }

    #[test]
    fn spec_validation_rejects_each_bad_knob() {
        let good = one_tenant(QosClass::Guaranteed, Arrivals::Open { mean_gap: 500 });
        assert!(good.validate().is_ok());

        let mut s = good.clone();
        s.tenants.clear();
        assert_eq!(s.validate(), Err(ServiceConfigError::NoTenants));

        let mut s = good.clone();
        s.horizon = 0;
        assert_eq!(s.validate(), Err(ServiceConfigError::ZeroHorizon));

        let mut s = good.clone();
        s.policies[QosClass::Burstable.rank()].aging_threshold = 0;
        assert_eq!(
            s.validate(),
            Err(ServiceConfigError::ZeroAging { class: QosClass::Burstable })
        );

        for bad in [
            Arrivals::Open { mean_gap: 0 },
            Arrivals::Closed { think: 0, inflight: 1 },
            Arrivals::Closed { think: 100, inflight: 0 },
        ] {
            let mut s = good.clone();
            s.tenants[0].arrivals = bad;
            assert_eq!(
                s.validate(),
                Err(ServiceConfigError::BadTenant { name: "t0".into() }),
                "{bad:?} must be rejected"
            );
        }

        let mut s = good;
        s.platform.kernel_cycle_cap = 1;
        assert!(matches!(s.validate(), Err(ServiceConfigError::Platform(_))));
    }

    #[test]
    fn zero_capacity_class_rejects_everything_typed() {
        let mut spec = one_tenant(QosClass::Burstable, Arrivals::Open { mean_gap: 500 });
        spec.policies[QosClass::Burstable.rank()].queue_capacity = 0;
        let r = run_service(&spec).expect("valid spec");
        let t = &r.tenants[0];
        assert!(t.submitted > 10, "the arrival process kept running");
        assert_eq!(t.admitted, 0);
        assert_eq!(t.rejected_disabled, t.submitted, "every arrival typed ClassDisabled");
        assert_eq!(t.completed, 0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn full_queue_rejects_the_overflow_and_stays_bounded() {
        // One CPM, a queue bound of 1, and arrivals far faster than the
        // service rate: the bounded queue must reject, not grow.
        let mut spec = one_tenant(QosClass::BestEffort, Arrivals::Open { mean_gap: 40 });
        spec.policies[QosClass::BestEffort.rank()].queue_capacity = 1;
        let r = run_service(&spec).expect("valid spec");
        let t = &r.tenants[0];
        assert!(t.rejected_full > 0, "overload must surface as QueueFull rejections");
        assert!(t.completed > 0, "admitted work is still served");
        assert_eq!(t.submitted, t.admitted + t.rejected());
        assert_eq!(t.admitted, t.completed + t.aborted + t.residual);
        assert!(t.residual <= 2, "bounded queue: at most one queued + one running leftover");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn all_cpms_dead_rejects_at_admission() {
        let mut spec = one_tenant(QosClass::Guaranteed, Arrivals::Open { mean_gap: 500 });
        let probe = SnackPlatform::new(spec.noc.clone()).expect("valid config");
        let cpm_node = probe.cpm_at(0).node();
        spec.fault_plan = Some(FaultPlan::seeded(1).with_dead_rcu(cpm_node, 0));
        let r = run_service(&spec).expect("valid spec");
        let t = &r.tenants[0];
        assert!(t.submitted > 0);
        assert_eq!(t.rejected_dead, t.submitted, "every arrival typed NoLiveCpm");
        assert_eq!(t.completed, 0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn dead_home_cpm_fails_over_to_the_live_corner() {
        // Two corner CPMs; CPM 0's node dies mid-run while a kernel may
        // be resident. The service must stop dispatching to the dead
        // slot, abort the stranded kernel at the (shortened) cycle cap,
        // and keep serving from the surviving corner — the service-layer
        // analogue of PR-8's home-CPM failover.
        let mut spec = one_tenant(QosClass::Guaranteed, Arrivals::Open { mean_gap: 300 });
        spec.cpm_count = 2;
        spec.platform.no_progress_window = 2_048;
        spec.platform.kernel_cycle_cap = 4_096;
        let probe = SnackPlatform::with_cpm_count(spec.noc.clone(), 2).expect("valid config");
        let dead_node = probe.cpm_at(0).node();
        spec.fault_plan = Some(FaultPlan::seeded(2).with_dead_rcu(dead_node, 5_000));
        let r = run_service(&spec).expect("valid spec");
        let t = &r.tenants[0];
        assert!(t.completed > 10, "the live corner kept serving: {t:?}");
        assert_eq!(t.rejected_dead, 0, "one live CPM remains — never NoLiveCpm");
        assert_eq!(t.submitted, t.admitted + t.rejected());
        assert_eq!(t.admitted, t.completed + t.aborted + t.residual);
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        // Same spec without the fault: strictly more completions, and the
        // faulted run must not have silently dropped the difference.
        let mut clean = spec.clone();
        clean.fault_plan = None;
        let rc = run_service(&clean).expect("valid spec");
        assert!(rc.tenants[0].completed > t.completed, "losing a corner costs throughput");
    }

    #[test]
    fn aging_rescues_besteffort_from_a_guaranteed_flood() {
        // A closed-loop Guaranteed tenant saturates the single CPM while
        // one early BestEffort submission waits. With a finite aging
        // threshold the scavenger's effective rank eventually beats the
        // flood; with an enormous threshold it waits until the flood's
        // horizon. Aging must strictly improve its tail latency.
        let flood = |aging: u64| {
            let tenants = vec![
                TenantSpec::new(
                    "flood",
                    QosClass::Guaranteed,
                    Kernel::Mac,
                    32,
                    Arrivals::Closed { think: 1, inflight: 2 },
                ),
                TenantSpec::new(
                    "scavenger",
                    QosClass::BestEffort,
                    Kernel::Mac,
                    32,
                    Arrivals::Open { mean_gap: 30_000 },
                ),
            ];
            let mut spec = ServiceSpec::new(tenants, 13);
            spec.horizon = 30_000;
            spec.drain = 30_000;
            spec.policies[QosClass::BestEffort.rank()].aging_threshold = aging;
            let r = run_service(&spec).expect("valid spec");
            assert!(r.violations.is_empty(), "{:?}", r.violations);
            let s = &r.tenants[1];
            assert!(s.completed >= 1, "the scavenger is served eventually (aging {aging})");
            s.hist.percentile(99.0)
        };
        let aged = flood(1_024);
        let starved = flood(1 << 40);
        assert!(
            aged < starved,
            "aging must cut the scavenger's tail: aged p99 {aged} vs starved p99 {starved}"
        );
    }

    #[test]
    fn stepping_modes_are_bit_identical_on_the_demo() {
        let base = three_class_demo(23);
        let mut prints = Vec::new();
        for mode in Stepping::ALL {
            let mut spec = base.clone();
            spec.noc.stepping = mode;
            let r = run_service(&spec).expect("valid spec");
            assert!(r.violations.is_empty(), "{mode}: {:?}", r.violations);
            prints.push((mode, r.fingerprint()));
        }
        for (mode, fp) in &prints[1..] {
            assert_eq!(*fp, prints[0].1, "{mode} diverged from dense");
        }
    }

    /// A NoC config the platform rejects passes the spec's own checks
    /// and must come back as a typed platform error, not a panic.
    #[test]
    fn invalid_noc_config_is_a_typed_error() {
        let mut spec = three_class_demo(1);
        spec.noc = spec.noc.with_pipeline_stages(9);
        assert!(spec.validate().is_ok(), "the spec itself is well-formed");
        let err = run_service(&spec).expect_err("a 9-stage router cannot run");
        assert!(
            matches!(
                err,
                ServiceError::Platform(PlatformError::Config(ConfigError::BadPipelineDepth(9)))
            ),
            "{err}"
        );
    }
}
