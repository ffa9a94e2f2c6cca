//! The five workloads: how each generates its inputs from the seed,
//! prepares the simulator, and what one rep runs and checks.
//!
//! Everything goes through the simulator crates' public API with library
//! defaults: no stepping-mode or sharding setter is ever called, so the
//! benchmark measures whatever the library does by default.

use crate::recorder::{self as at, Recorder, Site};
use snacknoc_compiler::{build, sim_size, MapperConfig};
use snacknoc_core::{CompiledKernel, Fixed, RecoveryConfig, SnackPlatform};
use snacknoc_noc::{
    FaultPlan, LatencyHistogram, NetStats, Network, NocConfig, NocPreset, NodeId, Packet,
    PacketSpec, TrafficClass,
};
use snacknoc_prng::Rng;
use snacknoc_service::{run_service, slo_sweep, ServiceSpec};
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::{BenchmarkProfile, Phase};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MeshSaturated,
    IdleThink,
    KernelSuite,
    KernelFaults,
    ServiceSlo,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MeshSaturated,
        Workload::IdleThink,
        Workload::KernelSuite,
        Workload::KernelFaults,
        Workload::ServiceSlo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshSaturated => "mesh-saturated",
            Workload::IdleThink => "idle-think",
            Workload::KernelSuite => "kernel-suite",
            Workload::KernelFaults => "kernel-faults",
            Workload::ServiceSlo => "service-slo",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The call whose host time is this workload's simulation.
    pub fn sim_site(self) -> &'static Site {
        match self {
            Workload::MeshSaturated => &at::NOC_STEP_UNTIL,
            Workload::IdleThink => &at::CORE_STEP_UNTIL,
            Workload::KernelSuite | Workload::KernelFaults => &at::CORE_RUN_KERNEL,
            Workload::ServiceSlo => &at::SERVICE_RUN,
        }
    }
}

/// mesh-saturated: open-loop uniform-random single-flit traffic past the
/// saturation point of a 32x32 mesh.
const MESH_SIDE: u16 = 32;
const MESH_SMOKE_SIDE: u16 = 8;
const MESH_RATE: f64 = 0.15;
const MESH_CYCLES: u64 = 2_000;
const MESH_SMOKE_CYCLES: u64 = 300;
/// Fits one 32-byte flit of the default NoC.
const MESH_PACKET_BYTES: u32 = 16;

/// idle-think: a closed-loop CMP that thinks 6,000 cycles between
/// requests, so nearly every router cycle is dead. A rep runs the CMP to
/// completion; 300 requests per core keep it issuing for about 2M cycles.
const IDLE_SIDE: u16 = 8;
const IDLE_THINK: f64 = 6_000.0;
const IDLE_REQUESTS: u64 = 300;
const IDLE_SMOKE_REQUESTS: u64 = 8;
const IDLE_SEGMENT: u64 = 1_000;
/// Far past any runtime the profile can reach; hitting it fails the rep.
const IDLE_CAP_CYCLES: u64 = 8_000_000;

/// kernel-faults: per-packet drop probability on the token ring, and the
/// independently seeded drop plans each kernel runs under per rep. Host
/// time per plan varies by a fifth between seeds (SGEMM's recovery is
/// bimodal), so a rep averages over several.
const DROP_RATE: f64 = 0.01;
const FAULT_PLANS: usize = 4;
const FAULT_SIZE_CAP: usize = 2_048;

/// service-slo: offered load in percent of the two-CPM knee.
const SERVICE_LOAD_PCT: u32 = 140;

fn kernel_size(kernel: Kernel, smoke: bool) -> usize {
    if !smoke {
        return sim_size(kernel);
    }
    match kernel {
        Kernel::Sgemm => 4,
        Kernel::Reduction | Kernel::Mac => 256,
        Kernel::Spmv => 12,
    }
}

/// One rep's simulated result: everything the correctness gate compares.
pub struct Outcome {
    /// Simulated cycles the rep advanced.
    pub sim_cycles: u64,
    /// Units of work attempted (kernel runs, service runs, mesh runs).
    pub units: u64,
    /// Units whose outputs were wrong or whose run returned an error.
    pub failed: u64,
    pub kernels: u64,
    /// Named simulated counts; identical on every rep of one seed.
    pub counts: Vec<(&'static str, f64)>,
    /// Further simulated state that must repeat, e.g. every `NetStats` counter.
    pub digest: String,
}

impl Outcome {
    /// A named count, 0 where this workload does not expose it.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1)
    }

    pub fn fingerprint(&self) -> String {
        let mut s = format!("cycles={} kernels={}", self.sim_cycles, self.kernels);
        for (name, v) in &self.counts {
            s.push_str(&format!(" {name}={v:?}"));
        }
        s.push(' ');
        s.push_str(&self.digest);
        s
    }
}

/// A workload's prepared inputs: the state at its first simulated cycle.
/// One exists per rep, moved straight into [`run`], so variant sizes do
/// not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Mesh(MeshInputs),
    Idle(SnackPlatform),
    Kernels(Vec<KernelJob>),
    Service(ServiceSpec),
}

pub fn setup(w: Workload, seed: u64, smoke: bool, rec: &mut Recorder) -> Prepared {
    match w {
        Workload::MeshSaturated => Prepared::Mesh(setup_mesh(seed, smoke, rec)),
        Workload::IdleThink => {
            let requests = if smoke { IDLE_SMOKE_REQUESTS } else { IDLE_REQUESTS };
            let profile = rec.call(&at::PROFILE, || BenchmarkProfile {
                name: "idle-think",
                phases: vec![Phase::smooth(requests, IDLE_THINK)],
                outstanding: 1,
            });
            let cfg = NocConfig::default().with_mesh(IDLE_SIDE, IDLE_SIDE);
            let mut p = rec
                .call(&at::CORE_NEW, || SnackPlatform::new(cfg))
                .expect("an 8x8 default platform is valid");
            rec.call(&at::CORE_ATTACH, || p.attach_workload(&profile, seed));
            Prepared::Idle(p)
        }
        Workload::KernelSuite => Prepared::Kernels(setup_kernels(seed, smoke, false, rec)),
        Workload::KernelFaults => Prepared::Kernels(setup_kernels(seed, smoke, true, rec)),
        Workload::ServiceSlo => {
            let mut spec = rec.call(&at::SERVICE_SLO_SWEEP, || slo_sweep(SERVICE_LOAD_PCT, seed));
            if smoke {
                spec.horizon = 6_000;
                spec.drain = 4_000;
            }
            rec.call(&at::SERVICE_VALIDATE, || spec.validate())
                .expect("the SLO-sweep preset is a valid spec");
            // run_service builds its platform and compiles every tenant's
            // kernel before its first cycle, out of the caller's reach. A
            // run cut off after one cycle measures that start-up from outside.
            let first_cycle = ServiceSpec { horizon: 1, drain: 0, ..spec.clone() };
            rec.call(&at::SERVICE_START, || run_service(&first_cycle))
                .expect("the SLO-sweep preset starts");
            Prepared::Service(spec)
        }
    }
}

pub fn run(prepared: Prepared, rec: &mut Recorder) -> Outcome {
    match prepared {
        Prepared::Mesh(m) => run_mesh(m, rec),
        Prepared::Idle(p) => run_idle(p, rec),
        Prepared::Kernels(jobs) => run_kernels(jobs, rec),
        Prepared::Service(spec) => run_slo(&spec, rec),
    }
}

// ---------------------------------------------------------------- mesh

struct Injection {
    at: u64,
    src: u16,
    dst: u16,
    vnet: u8,
}

/// The payload names the packet's due cycle, source and destination, so
/// every delivery can be checked against what was sent.
fn tag(at: u64, src: usize, dst: usize) -> u64 {
    (at << 32) | ((src as u64) << 16) | dst as u64
}

pub struct MeshInputs {
    net: Network<u64>,
    nodes: Vec<NodeId>,
    schedule: Vec<Injection>,
    cycles: u64,
}

fn setup_mesh(seed: u64, smoke: bool, rec: &mut Recorder) -> MeshInputs {
    let side = if smoke { MESH_SMOKE_SIDE } else { MESH_SIDE };
    let cycles = if smoke { MESH_SMOKE_CYCLES } else { MESH_CYCLES };
    let cfg = NocConfig::default().with_mesh(side, side);
    let n = usize::from(side) * usize::from(side);
    let vnets = u64::from(cfg.vnets);
    let schedule = rec.call(&at::SCHEDULE, || {
        let mut rng = Rng::new(seed ^ 0x6d65_7368_2d73_6174);
        let mut schedule =
            Vec::with_capacity((n as f64 * cycles as f64 * MESH_RATE * 1.1) as usize);
        for at in 0..cycles {
            for src in 0..n {
                if rng.unit_f64() < MESH_RATE {
                    let d = rng.range_usize(0..n - 1);
                    let dst = if d >= src { d + 1 } else { d };
                    let vnet = rng.range(0..vnets) as u8;
                    schedule.push(Injection { at, src: src as u16, dst: dst as u16, vnet });
                }
            }
        }
        schedule
    });
    let net = rec.call(&at::NOC_NEW, || Network::new(cfg)).expect("a default mesh is valid");
    let nodes = net.mesh().nodes().collect();
    MeshInputs { net, nodes, schedule, cycles }
}

/// Drains every node's deliveries; returns (delivered, wrongly delivered).
fn drain(
    net: &mut Network<u64>,
    nodes: &[NodeId],
    out: &mut Vec<Packet<u64>>,
    rec: &mut Recorder,
) -> (u64, u64) {
    rec.calls(&at::NOC_DRAIN, || {
        if !net.has_ejected() {
            return (0, ());
        }
        for &node in nodes {
            net.drain_ejected_into(node, out);
        }
        (nodes.len() as u32, ())
    });
    let delivered = out.len() as u64;
    let wrong = out
        .drain(..)
        .filter(|p| p.payload != tag(p.queued_at, p.src.index(), p.dst.index()))
        .count() as u64;
    (delivered, wrong)
}

fn run_mesh(m: MeshInputs, rec: &mut Recorder) -> Outcome {
    let MeshInputs { mut net, nodes, schedule, cycles } = m;
    let mut out = Vec::new();
    let (mut delivered, mut wrong, mut inject_errors) = (0u64, 0u64, 0u64);
    let (mut backlog_peak, mut buffered_sum, mut samples) = (0u64, 0u64, 0u64);
    let mut cursor = 0;
    while cursor < schedule.len() {
        let due = schedule[cursor].at;
        rec.call(&at::NOC_STEP_UNTIL, || net.step_until(due));
        let (d, w) = drain(&mut net, &nodes, &mut out, rec);
        delivered += d;
        wrong += w;
        let start = cursor;
        while cursor < schedule.len() && schedule[cursor].at == due {
            cursor += 1;
        }
        let batch = &schedule[start..cursor];
        inject_errors += rec.calls(&at::NOC_INJECT, || {
            let mut errors = 0u64;
            for i in batch {
                let (src, dst) = (usize::from(i.src), usize::from(i.dst));
                let spec = PacketSpec::new(
                    NodeId::new(src),
                    NodeId::new(dst),
                    i.vnet,
                    TrafficClass::Communication,
                    MESH_PACKET_BYTES,
                    tag(due, src, dst),
                );
                errors += u64::from(net.inject(spec).is_err());
            }
            (batch.len() as u32, errors)
        });
        backlog_peak = backlog_peak.max(net.total_ni_backlog());
        buffered_sum += net.buffered_flits();
        samples += 1;
    }
    rec.call(&at::NOC_STEP_UNTIL, || net.step_until(cycles));
    let (d, w) = drain(&mut net, &nodes, &mut out, rec);
    delivered += d;
    wrong += w;
    rec.call(&at::NOC_FINALIZE, || {
        net.finalize_stats();
    });
    let stats = net.stats();
    let ok = inject_errors == 0
        && wrong == 0
        && delivered == net.delivered_packets()
        && stats.protocol_errors.total() == 0;
    let mut counts = noc_counts(stats);
    counts.extend([
        (
            "sim.p99_latency_cycles",
            stats.class(TrafficClass::Communication).latency_percentile(99.0) as f64,
        ),
        ("noc.injected_packets", net.injected_packets() as f64),
        ("noc.delivered_packets", net.delivered_packets() as f64),
        ("noc.pending_packets", net.pending_packets() as f64),
        ("noc.pool_high_water", net.payload_pool_high_water() as f64),
        ("noc.pool_growth_events", net.payload_pool_growth_events() as f64),
        ("noc.ni_backlog_peak", backlog_peak as f64),
        ("noc.buffered_flits_mean", buffered_sum as f64 / samples.max(1) as f64),
    ]);
    Outcome {
        sim_cycles: cycles,
        units: 1,
        failed: u64::from(!ok),
        kernels: 0,
        counts,
        digest: netstats_digest(stats),
    }
}

// ---------------------------------------------------------------- idle

/// Steps the platform segment by segment until its CMP workload finishes.
fn run_idle(mut p: SnackPlatform, rec: &mut Recorder) -> Outcome {
    let mut now = 0;
    while !p.workload_done() && now < IDLE_CAP_CYCLES {
        now += IDLE_SEGMENT;
        rec.call(&at::CORE_STEP_UNTIL, || p.step_until(now));
    }
    let done = p.workload_done();
    let runtime = p.workload_runtime().unwrap_or(0);
    let packets = p.net_injected_packets();
    let delivered = p.net_delivered_packets();
    rec.call(&at::CORE_FINALIZE, || {
        p.finalize_stats();
    });
    let stats = p.stats();
    let ok = done && delivered == packets && stats.protocol_errors.total() == 0;
    let mut counts = noc_counts(stats);
    counts.extend([
        (
            "sim.p99_latency_cycles",
            stats.class(TrafficClass::Communication).latency_percentile(99.0) as f64,
        ),
        ("noc.delivered_packets", delivered as f64),
        ("workloads.packets", packets as f64),
        ("workloads.runtime_cycles", runtime as f64),
    ]);
    Outcome {
        sim_cycles: now,
        units: 1,
        failed: u64::from(!ok),
        kernels: 0,
        counts,
        digest: netstats_digest(stats),
    }
}

// ------------------------------------------------------------- kernels

pub struct KernelJob {
    kernel: Kernel,
    compiled: CompiledKernel,
    reference: Vec<Fixed>,
    /// A fresh zero-load platform per run of the kernel.
    platforms: Vec<SnackPlatform>,
    cap: u64,
}

/// Builds, compiles, checks and interprets the four paper kernels, with
/// one fresh platform each; with `faults`, on BiNoCHS with MAC fusion off
/// (so values cross the ring), with one platform per seeded drop plan.
fn setup_kernels(seed: u64, smoke: bool, faults: bool, rec: &mut Recorder) -> Vec<KernelJob> {
    let (cfg, plans) = if faults {
        let mut rng = Rng::new(seed ^ 0x6661_756c_7473);
        let plans = (0..FAULT_PLANS)
            .map(|_| Some(FaultPlan::seeded(rng.next_u64()).with_drop_rate(DROP_RATE)))
            .collect();
        (NocConfig::preset(NocPreset::BiNoChs), plans)
    } else {
        (NocConfig::default(), vec![None])
    };
    let mut jobs = Vec::with_capacity(Kernel::ALL.len());
    for kernel in Kernel::ALL {
        let size = kernel_size(kernel, smoke);
        let size = if faults { size.min(FAULT_SIZE_CAP) } else { size };
        let built = rec.call(&at::COMPILER_BUILD, || build(kernel, size, seed));
        let mut platforms = Vec::with_capacity(plans.len());
        for plan in &plans {
            let mut p = rec
                .call(&at::CORE_NEW, || SnackPlatform::new(cfg.clone()))
                .expect("a 4x4 preset platform is valid");
            if let Some(plan) = plan {
                rec.call(&at::CORE_FAULT_PLAN, || p.set_fault_plan(plan.clone()))
                    .expect("a uniform drop plan is valid");
                rec.call(&at::CORE_RECOVERY, || p.enable_recovery(RecoveryConfig::aggressive()));
            }
            platforms.push(p);
        }
        let mapper = MapperConfig::for_mesh(platforms[0].mesh()).with_mac_fusion(!faults);
        let compiled = rec
            .call(&at::COMPILER_COMPILE, || built.context.compile(built.root, &mapper))
            .expect("the paper kernels compile");
        rec.call(&at::CORE_VALIDATE, || compiled.validate())
            .expect("compiled paper kernels are well-formed");
        let reference = rec
            .call(&at::COMPILER_INTERPRET, || built.context.interpret(built.root))
            .expect("the paper kernels interpret");
        let len = compiled.len() as u64;
        let cap = if faults { 800 * len + 2_000_000 } else { 200 * len + 1_000_000 };
        jobs.push(KernelJob { kernel, compiled, reference, platforms, cap });
    }
    jobs
}

/// Sums of the per-platform counters over one suite.
#[derive(Default)]
struct SuiteTotals {
    instructions: u64,
    executed: u64,
    captures: u64,
    stalled: u64,
    issued: u64,
    absorbed: u64,
    overflow: u64,
    detected: u64,
    retries: u64,
    fires: u64,
    dropped: u64,
    flits: u64,
    xbar: u64,
    occ_zero: f64,
    occ_total: u64,
}

fn run_kernels(jobs: Vec<KernelJob>, rec: &mut Recorder) -> Outcome {
    let mut counts: Vec<(&'static str, f64)> = Vec::new();
    let (mut cycles, mut runs, mut failed, mut completed) = (0u64, 0u64, 0u64, 0u64);
    let mut t = SuiteTotals::default();
    let mut data_latency = LatencyHistogram::new();
    let mut digest = String::new();
    for job in jobs {
        t.instructions += job.compiled.len() as u64;
        let mut kernel_cycles = 0;
        for mut p in job.platforms {
            let result = rec.call(&at::CORE_RUN_KERNEL, || p.run_kernel(&job.compiled, job.cap));
            let ok = match result {
                Ok(run) => {
                    kernel_cycles += run.cycles;
                    let ok = run.outputs == job.reference;
                    if !ok {
                        eprintln!("{}: outputs differ from Context::interpret", job.kernel);
                    }
                    ok
                }
                Err(e) => {
                    eprintln!("{}: run_kernel failed: {e}", job.kernel);
                    false
                }
            };
            runs += 1;
            completed += u64::from(ok);
            failed += u64::from(!ok);
            let rcu = p.rcu_stats();
            t.executed += rcu.executed;
            t.captures += rcu.captures;
            t.stalled += rcu.stalled_cycles;
            let cpm = &p.cpm().stats;
            t.issued += cpm.instructions_issued;
            t.absorbed += cpm.tokens_absorbed;
            t.overflow += cpm.overflow_cycles;
            let r = p.recovery_stats();
            t.detected += r.detected;
            t.retries += r.retries;
            t.fires += r.watchdog_fires;
            t.dropped += p.fault_counters().dropped_packets;
            rec.call(&at::CORE_FINALIZE, || {
                p.finalize_stats();
            });
            let stats = p.stats();
            t.flits += stats.injected_flits;
            t.xbar += stats.crossbar_transfers;
            t.occ_zero += stats.occupancy.zero_fraction() * stats.occupancy.total_cycles() as f64;
            t.occ_total += stats.occupancy.total_cycles();
            data_latency.merge(&stats.class(TrafficClass::SnackData).latency_hist);
            digest.push_str(&netstats_digest(stats));
        }
        cycles += kernel_cycles;
        counts.push((kernel_count_name(job.kernel), kernel_cycles as f64));
    }
    counts.extend([
        ("sim.p99_latency_cycles", data_latency.percentile(99.0) as f64),
        ("noc.injected_flits", t.flits as f64),
        ("noc.xbar_transfers", t.xbar as f64),
        ("noc.occupancy_zero_frac", t.occ_zero / t.occ_total.max(1) as f64),
        ("compiler.instructions", t.instructions as f64),
        ("core.rcu.executed", t.executed as f64),
        ("core.rcu.captures", t.captures as f64),
        ("core.rcu.stalled_cycles", t.stalled as f64),
        ("core.cpm.instructions_issued", t.issued as f64),
        ("core.cpm.tokens_absorbed", t.absorbed as f64),
        ("core.cpm.overflow_cycles", t.overflow as f64),
        ("core.noc_flits_per_kernel", t.flits as f64 / runs.max(1) as f64),
        ("core.recovery.detected", t.detected as f64),
        ("core.recovery.retries", t.retries as f64),
        ("core.recovery.watchdog_fires", t.fires as f64),
        ("core.recovery.retries_per_loss", t.retries as f64 / t.detected.max(1) as f64),
        ("core.fault.dropped_packets", t.dropped as f64),
    ]);
    Outcome { sim_cycles: cycles, units: runs, failed, kernels: completed, counts, digest }
}

fn kernel_count_name(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Sgemm => "core.kernel_cycles.sgemm",
        Kernel::Reduction => "core.kernel_cycles.reduction",
        Kernel::Mac => "core.kernel_cycles.mac",
        Kernel::Spmv => "core.kernel_cycles.spmv",
    }
}

// ------------------------------------------------------------- service

fn run_slo(spec: &ServiceSpec, rec: &mut Recorder) -> Outcome {
    let report = match rec.call(&at::SERVICE_RUN, || run_service(spec)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("run_service failed: {e}");
            return Outcome {
                sim_cycles: 0,
                units: 1,
                failed: 1,
                kernels: 0,
                counts: Vec::new(),
                digest: String::new(),
            };
        }
    };
    for v in &report.violations {
        eprintln!("service violation: {v}");
    }
    let [g, b, e] = report.classes();
    let submitted = g.submitted + b.submitted + e.submitted;
    let counts = vec![
        ("sim.p99_latency_cycles", g.hist.percentile(99.0) as f64),
        ("service.submitted", submitted as f64),
        ("service.admitted", (g.admitted + b.admitted + e.admitted) as f64),
        ("service.rejected", report.rejected() as f64),
        ("service.completed", report.completed() as f64),
        ("service.aborted", (g.aborted + b.aborted + e.aborted) as f64),
        ("service.reject_frac", report.rejected() as f64 / submitted.max(1) as f64),
        ("service.p99_cycles.guaranteed", g.hist.percentile(99.0) as f64),
        ("service.p99_cycles.burstable", b.hist.percentile(99.0) as f64),
        ("service.p99_cycles.besteffort", e.hist.percentile(99.0) as f64),
        ("service.fairness", report.fairness()),
    ];
    Outcome {
        sim_cycles: report.cycles,
        units: 1,
        failed: u64::from(!report.violations.is_empty()),
        kernels: report.completed(),
        counts,
        digest: format!("report={:016x}", report.fingerprint()),
    }
}

// --------------------------------------------------------------- stats

/// The NoC counts every network-backed workload reports.
fn noc_counts(stats: &NetStats) -> Vec<(&'static str, f64)> {
    vec![
        ("noc.injected_flits", stats.injected_flits as f64),
        ("noc.xbar_transfers", stats.crossbar_transfers as f64),
        ("noc.occupancy_zero_frac", stats.occupancy.zero_fraction()),
    ]
}

/// Every `NetStats` counter, formatted exactly.
fn netstats_digest(stats: &NetStats) -> String {
    let occ = &stats.occupancy;
    let perr = &stats.protocol_errors;
    let mut s = format!(
        "[inj_flits={} xbar={} occ={}/{:?}/{}/{:?}/{:?} xbar_util={:?}/{:?} link_util={:?}/{:?} perr={}/{}/{}",
        stats.injected_flits,
        stats.crossbar_transfers,
        occ.total_cycles(),
        occ.zero_fraction(),
        occ.dropped_samples(),
        occ.cumulative_at(50),
        occ.cumulative_at(90),
        stats.median_crossbar_utilization(),
        stats.peak_crossbar_utilization(),
        stats.median_link_utilization(),
        stats.peak_link_utilization(),
        perr.tail_without_head,
        perr.missing_payload,
        perr.duplicate_head,
    );
    for class in
        [TrafficClass::Communication, TrafficClass::SnackInstruction, TrafficClass::SnackData]
    {
        let c = stats.class(class);
        s.push_str(&format!(
            " {class:?}={}/{}/{}/{}/{}/{}",
            c.delivered,
            c.flits,
            c.latency_sum,
            c.latency_max,
            c.latency_percentile(50.0),
            c.latency_percentile(99.0),
        ));
    }
    s.push(']');
    s
}
