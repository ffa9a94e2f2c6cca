//! The traced run's span recorder.
//!
//! Every call the benchmark makes into a layer's public function is a
//! [`Site`]. While a rep is traced, each call becomes a [`Span`] in one
//! preallocated in-memory `Vec`; nothing is written until the run ends.
//! While a rep is untraced the recorder only runs the closure, so the
//! untraced run pays one branch per call.
//!
//! Hot per-packet calls (`Network::inject`, `Network::drain_ejected_into`)
//! are spanned once per cycle's batch with the batch's call count, because
//! two clock reads around a ~50 ns call would measure mostly the clock.

use std::io::{self, Write};
use std::time::Instant;

/// What a call contributes to; the per-layer metrics sum spans by role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The benchmark's own structure: a rep, its setup and its run.
    Bench,
    /// Generating the workload's inputs from the seed.
    Gen,
    /// Building the simulator and the program from those inputs.
    Prepare,
    /// Advancing simulated time: the workload's simulating call.
    Sim,
    /// Moving inputs in and results out between simulating calls.
    Io,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Bench => "bench",
            Role::Gen => "gen",
            Role::Prepare => "prepare",
            Role::Sim => "sim",
            Role::Io => "io",
        }
    }
}

/// One public function of one layer.
#[derive(Debug)]
pub struct Site {
    pub layer: &'static str,
    pub function: &'static str,
    pub role: Role,
}

const fn site(layer: &'static str, function: &'static str, role: Role) -> Site {
    Site { layer, function, role }
}

pub static REP: Site = site("bench", "rep", Role::Bench);
pub static SETUP: Site = site("bench", "setup", Role::Bench);
pub static RUN: Site = site("bench", "run", Role::Bench);
pub static SCHEDULE: Site = site("bench", "schedule", Role::Gen);
pub static PROFILE: Site = site("workloads", "Phase::smooth", Role::Gen);
pub static NOC_NEW: Site = site("noc", "Network::new", Role::Prepare);
pub static NOC_STEP_UNTIL: Site = site("noc", "step_until", Role::Sim);
pub static NOC_INJECT: Site = site("noc", "inject", Role::Io);
pub static NOC_DRAIN: Site = site("noc", "drain_ejected_into", Role::Io);
pub static NOC_FINALIZE: Site = site("noc", "finalize_stats", Role::Io);
pub static CORE_NEW: Site = site("core", "SnackPlatform::new", Role::Prepare);
pub static CORE_ATTACH: Site = site("core", "attach_workload", Role::Prepare);
pub static CORE_VALIDATE: Site = site("core", "CompiledKernel::validate", Role::Prepare);
pub static CORE_FAULT_PLAN: Site = site("core", "set_fault_plan", Role::Prepare);
pub static CORE_RECOVERY: Site = site("core", "enable_recovery", Role::Prepare);
pub static CORE_STEP_UNTIL: Site = site("core", "step_until", Role::Sim);
pub static CORE_RUN_KERNEL: Site = site("core", "run_kernel", Role::Sim);
pub static CORE_FINALIZE: Site = site("core", "finalize_stats", Role::Io);
pub static COMPILER_BUILD: Site = site("compiler", "build", Role::Gen);
pub static COMPILER_COMPILE: Site = site("compiler", "Context::compile", Role::Prepare);
pub static COMPILER_INTERPRET: Site = site("compiler", "Context::interpret", Role::Prepare);
pub static SERVICE_SLO_SWEEP: Site = site("service", "slo_sweep", Role::Gen);
pub static SERVICE_VALIDATE: Site = site("service", "ServiceSpec::validate", Role::Prepare);
pub static SERVICE_START: Site = site("service", "run_service to cycle 1", Role::Prepare);
pub static SERVICE_RUN: Site = site("service", "run_service", Role::Sim);

/// One recorded call (or per-cycle batch of calls).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub site: &'static Site,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing bench span, if any.
    pub parent: Option<u32>,
    pub rep: u32,
    /// Calls this span covers (1 except for per-cycle batches).
    pub calls: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(capacity: usize) -> Self {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// Starts rep `rep`, recording spans only if `traced`.
    pub fn start_rep(&mut self, rep: u32, traced: bool) {
        debug_assert!(self.open.is_empty(), "a rep started inside an open span");
        self.rep = rep;
        self.enabled = traced;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, site: &'static Site, start_ns: u64, end_ns: u64, calls: u32) -> u32 {
        let parent = self.open.last().copied();
        self.spans.push(Span { site, start_ns, end_ns, parent, rep: self.rep, calls });
        (self.spans.len() - 1) as u32
    }

    /// Opens a bench span that later spans nest in; close it with [`Recorder::exit`].
    pub fn enter(&mut self, site: &'static Site) {
        if self.enabled {
            let now = self.now();
            let idx = self.push(site, now, now, 1);
            self.open.push(idx);
        }
    }

    pub fn exit(&mut self) {
        if self.enabled {
            let now = self.now();
            let idx = self.open.pop().expect("exit matches an enter");
            self.spans[idx as usize].end_ns = now;
        }
    }

    /// Runs `f`, one call of `site`.
    pub fn call<T>(&mut self, site: &'static Site, f: impl FnOnce() -> T) -> T {
        self.calls(site, || (1, f()))
    }

    /// Runs `f`, a batch of calls of `site`; `f` returns how many it made.
    pub fn calls<T>(&mut self, site: &'static Site, f: impl FnOnce() -> (u32, T)) -> T {
        if !self.enabled {
            return f().1;
        }
        let start = self.now();
        let (calls, out) = f();
        let end = self.now();
        self.push(site, start, end, calls);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"layer\": \"{}\", \"function\": \"{}\", \"role\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}, \"calls\": {}}}",
                s.site.layer,
                s.site.function,
                s.site.role.name(),
                s.start_ns,
                s.end_ns,
                s.rep,
                s.calls,
            )?;
        }
        Ok(())
    }
}

/// Everything recorded for one site.
pub struct SiteTotals {
    pub site: &'static Site,
    pub calls: u64,
    /// Span durations in ns, one per span.
    pub durations: Vec<f64>,
}

impl SiteTotals {
    pub fn total_ns(&self) -> f64 {
        self.durations.iter().sum()
    }
}

/// Spans grouped by site, in first-seen order.
pub fn site_totals(spans: &[Span]) -> Vec<SiteTotals> {
    let mut out: Vec<SiteTotals> = Vec::new();
    for s in spans {
        let i = match out.iter().position(|t| std::ptr::eq(t.site, s.site)) {
            Some(i) => i,
            None => {
                out.push(SiteTotals { site: s.site, calls: 0, durations: Vec::new() });
                out.len() - 1
            }
        };
        out[i].calls += u64::from(s.calls);
        out[i].durations.push(s.ns() as f64);
    }
    out
}
