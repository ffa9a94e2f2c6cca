//! Ablations of the design choices DESIGN.md §6 calls out. Each benchmark
//! simulates the same work under the design-on and design-off variants;
//! the *simulated-cycle* comparison (the architectural result) is produced
//! by `cargo run --bin ablation_report`, while this harness tracks the
//! host-side simulation cost of each variant. Cases are registered as
//! [`TimedJob`]s on the deterministic sweep pool
//! (`snacknoc_bench::sweep`); set `SNACKNOC_BENCH_THREADS` to time them
//! concurrently.

use snacknoc_bench::sweep::TimedJob;
use snacknoc_bench::harness::Harness;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::SnackPlatform;
use snacknoc_noc::NocConfig;
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::suite::{profile, Benchmark};

/// MAC fusion on vs off: fused inner products keep partial sums in the
/// accumulator; unfused ones push every product through the ring.
fn mac_fusion_jobs(jobs: &mut Vec<TimedJob>) {
    for fusion in [true, false] {
        let built = build(Kernel::Sgemm, 12, 7);
        let sample = SnackPlatform::new(NocConfig::default()).unwrap();
        let cfg = MapperConfig::for_mesh(sample.mesh()).with_mac_fusion(fusion);
        let kernel = built.context.compile(built.root, &cfg).unwrap();
        jobs.push(TimedJob::batched(
            &format!("ablation_mac_fusion/sgemm12/{fusion}"),
            || SnackPlatform::new(NocConfig::default()).unwrap(),
            move |mut p| p.run_kernel(&kernel, 5_000_000).expect("finishes"),
        ));
    }
}

/// Priority arbitration on vs off under mixed CMP + kernel traffic.
fn priority_arbitration_jobs(jobs: &mut Vec<TimedJob>) {
    for arb in [true, false] {
        let workload = profile(Benchmark::Radix).scaled(0.0002);
        let built = build(Kernel::Sgemm, 12, 7);
        jobs.push(TimedJob::batched(
            &format!("ablation_priority_arb/radix+sgemm/{arb}"),
            move || {
                let cfg = NocConfig::dapper().with_priority_arbitration(arb);
                let mut p = SnackPlatform::new(cfg).unwrap();
                let kernel = built
                    .context
                    .compile(built.root, &MapperConfig::for_mesh(p.mesh()))
                    .unwrap();
                p.attach_workload(&workload, 3);
                (p, kernel)
            },
            |(mut p, kernel)| p.run_multiprogram_capped(Some(&kernel)),
        ));
    }
}

fn main() {
    let mut h = Harness::from_env("ablations");
    let mut jobs = Vec::new();
    mac_fusion_jobs(&mut jobs);
    priority_arbitration_jobs(&mut jobs);
    h.bench_jobs(jobs);
    h.finish();
}
