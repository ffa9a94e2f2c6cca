//! The `snack-trace` driver: run a paper kernel under the cycle-level
//! tracer and turn the event stream into artifacts — Chrome trace-event
//! JSON (Perfetto-loadable), a critical-path breakdown, per-link
//! utilization, and token-lifetime histograms.

use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::NocConfig;
use snacknoc_trace::{
    critical_path, to_chrome_trace, token_lifetimes, ComponentClass, CriticalPath,
    CycleHistogram, RingTracer, TracerHandle,
};
use snacknoc_workloads::kernels::Kernel;

/// Default per-component-class ring-buffer capacity for traced runs.
/// Generous for any CI-scale kernel; saturated classes degrade gracefully
/// into drop counters rather than failing.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// Everything a traced kernel run produced.
#[derive(Debug)]
pub struct TracedKernelRun {
    /// The kernel that ran.
    pub kernel: Kernel,
    /// Problem size.
    pub size: usize,
    /// Input seed.
    pub seed: u64,
    /// Kernel completion latency in cycles.
    pub cycles: u64,
    /// Instructions in the compiled kernel.
    pub instructions: usize,
    /// Whether the outputs matched the reference interpreter bit-for-bit.
    pub verified: bool,
    /// The recorded event stream (buffers + drop counters + link counts).
    pub tracer: RingTracer,
    /// The critical-path tiling of the kernel's latency, if the trace
    /// captured the submit/finish bracket.
    pub critical_path: Option<CriticalPath>,
}

/// Compiles `kernel` at `size`, runs it on a zero-load platform with a
/// [`RingTracer`] of `capacity` events per component class, and analyzes
/// the recorded stream.
///
/// # Panics
///
/// Panics if the kernel fails to compile, validate or finish — platform
/// bugs, not experimental conditions (mirrors
/// [`crate::experiments::run_snack_kernel`]).
pub fn run_traced_kernel(
    kernel: Kernel,
    size: usize,
    cfg: NocConfig,
    seed: u64,
    capacity: usize,
) -> TracedKernelRun {
    let built = build(kernel, size, seed);
    let pipeline_stages = cfg.pipeline_stages as u64;
    let mut platform = SnackPlatform::new(cfg).expect("valid platform config");
    platform.set_tracer(TracerHandle::ring(capacity));
    let mapper = MapperConfig::for_mesh(platform.mesh());
    let compiled = built.context.compile(built.root, &mapper).expect("kernel compiles");
    compiled.validate().expect("compiled kernel is well-formed");
    let instructions = compiled.len();
    let cap = 200 * instructions as u64 + 1_000_000;
    let run = platform
        .run_kernel(&compiled, cap)
        .unwrap_or_else(|e| panic!("{kernel} did not finish within {cap} cycles: {e}"));
    let reference = built.context.interpret(built.root).expect("interpretable");
    let tracer = *platform.take_tracer().take_ring().expect("ring tracer installed");
    let merged = tracer.merged_events();
    let critical = critical_path(&merged, pipeline_stages);
    TracedKernelRun {
        kernel,
        size,
        seed,
        cycles: run.cycles,
        instructions,
        verified: run.outputs == reference,
        tracer,
        critical_path: critical,
    }
}

impl TracedKernelRun {
    /// The Chrome trace-event JSON for this run.
    pub fn chrome_json(&self) -> String {
        to_chrome_trace(&self.tracer)
    }

    /// Human-readable text report: event accounting, critical path,
    /// token lifetimes, and the busiest links.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "kernel {} size {} seed {}: {} cycles, {} instructions, verified={}\n",
            self.kernel, self.size, self.seed, self.cycles, self.instructions, self.verified
        ));
        out.push_str("events:");
        for class in ComponentClass::ALL {
            out.push_str(&format!(
                " {}={} (dropped {})",
                class.lane_name(),
                self.tracer.events(class).len(),
                self.tracer.dropped(class)
            ));
        }
        out.push('\n');
        match &self.critical_path {
            Some(cp) => {
                out.push_str(&cp.render());
                out.push('\n');
            }
            None => out.push_str("critical path: unavailable (no submit/finish bracket)\n"),
        }
        let lifetimes = token_lifetimes(&self.tracer.merged_events());
        if !lifetimes.is_empty() {
            let mut hist = CycleHistogram::new();
            for &(_, launched, retired) in &lifetimes {
                hist.record(retired.saturating_sub(launched));
            }
            out.push_str(&hist.render("token lifetime (cycles)"));
            out.push('\n');
        }
        let mut heat = self.tracer.link_heatmap();
        heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total: u64 = heat.iter().map(|(_, n)| n).sum();
        out.push_str(&format!("link flit-hops: {total} total, busiest:\n"));
        for ((router, port), n) in heat.iter().take(8) {
            out.push_str(&format!("  router {router:>3} port {port}: {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacknoc_trace::validate_chrome_trace;

    #[test]
    fn traced_mac_kernel_produces_valid_artifacts() {
        let run = run_traced_kernel(Kernel::Mac, 8, NocConfig::default(), 7, 1 << 16);
        assert!(run.verified, "tracing must not perturb results");
        let json = run.chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(summary.router_events > 0);
        assert!(summary.rcu_events > 0);
        assert!(summary.cpm_events > 0);
        let cp = run.critical_path.as_ref().expect("bracket captured");
        assert_eq!(cp.total(), run.cycles, "bracket spans the measured latency");
        assert_eq!(cp.attributed_total(), cp.total(), "tiling is exact");
        let report = run.report();
        assert!(report.contains("critical path"));
        assert!(report.contains("link flit-hops"));
    }

    #[test]
    fn traced_run_latency_matches_untraced() {
        let traced = run_traced_kernel(Kernel::Reduction, 8, NocConfig::default(), 3, 1 << 16);
        let plain =
            crate::experiments::run_snack_kernel(Kernel::Reduction, 8, NocConfig::default(), 3);
        assert_eq!(traced.cycles, plain.cycles, "observation must not change timing");
        assert_eq!(traced.verified, plain.verified);
    }

    #[test]
    fn tiny_capacity_degrades_into_drop_counters() {
        let run = run_traced_kernel(Kernel::Mac, 8, NocConfig::default(), 7, 8);
        let dropped: u64 =
            ComponentClass::ALL.iter().map(|&c| run.tracer.dropped(c)).sum();
        assert!(dropped > 0, "an 8-slot ring must saturate");
        assert!(run.verified, "saturation still must not perturb the run");
    }
}
