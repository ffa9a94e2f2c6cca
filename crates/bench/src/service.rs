//! The multi-tenant service SLO sweep: the `snacknoc-service` SLO
//! scenario run across load levels, every level in **both stepping
//! modes**, with the per-class latency percentiles, throughput, fairness
//! and rejection rates the `snack-service` binary reports as
//! `BENCH_service.json`.
//!
//! Every cell (load level × mode) is an independent deterministic
//! simulation, so the grid runs on the seeded sweep pool
//! ([`crate::sweep::parallel_map`]) and the report is byte-identical for
//! any worker-thread count — the determinism suite asserts exactly that.

use crate::sweep::{json_escape, parallel_map};
use crate::table::print_table;
use snacknoc_service::{run_service, slo_sweep, QosClass, ServiceReport, Stepping};
use std::io::{self, Write};

/// The service sweep: which load levels to drive and how.
#[derive(Clone, Debug)]
pub struct ServiceGridSpec {
    /// Load levels in percent of the calibrated saturation knee
    /// (see [`snacknoc_service::slo_sweep`]).
    pub loads: Vec<u32>,
    /// Master seed.
    pub seed: u64,
    /// Sweep-pool worker threads (simulation output is identical for any
    /// value).
    pub threads: usize,
}

impl ServiceGridSpec {
    /// A spec over the given load levels.
    pub fn new(loads: &[u32], seed: u64) -> Self {
        ServiceGridSpec { loads: loads.to_vec(), seed, threads: 1 }
    }

    /// Sets the sweep-pool width.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        ServiceGridSpec { threads: threads.max(1), ..self }
    }
}

/// Per-class row of one load level.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassRow {
    /// Class name.
    pub class: &'static str,
    /// Arrivals presented to admission control.
    pub submitted: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals rejected (all typed kinds).
    pub rejected: u64,
    /// Kernels completed.
    pub completed: u64,
    /// Kernels aborted at the cycle cap.
    pub aborted: u64,
    /// SLO latency percentiles over completions (cycles).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Completions per million service cycles.
    pub throughput_per_mcycle: f64,
}

/// Per-tenant row of one load level.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// Its class name.
    pub class: &'static str,
    /// Arrivals presented / admitted / rejected.
    pub submitted: u64,
    /// Admitted.
    pub admitted: u64,
    /// Rejected.
    pub rejected: u64,
    /// Completed.
    pub completed: u64,
    /// p99 SLO latency (cycles).
    pub p99: u64,
}

/// One load level's outcome (stats from the dense reference mode; the
/// serial run is fingerprint-compared against it).
#[derive(Clone, Debug)]
pub struct LoadLevel {
    /// The level, in percent of the saturation knee.
    pub load: u32,
    /// Service-loop cycles.
    pub cycles: u64,
    /// Whether both stepping modes produced bit-identical reports.
    pub modes_identical: bool,
    /// Jain's fairness index over per-tenant service cycles.
    pub fairness: f64,
    /// Total completions.
    pub completed: u64,
    /// Total rejections.
    pub rejected: u64,
    /// Per-class rows (Guaranteed, Burstable, BestEffort).
    pub classes: Vec<ClassRow>,
    /// Per-tenant rows, spec order.
    pub tenants: Vec<TenantRow>,
    /// Conservation violations (must be empty).
    pub violations: Vec<String>,
}

/// The full sweep outcome.
#[derive(Clone, Debug)]
pub struct ServiceGridResults {
    /// One row per load level, ascending.
    pub levels: Vec<LoadLevel>,
}

fn level_from(load: u32, report: &ServiceReport, modes_identical: bool) -> LoadLevel {
    let classes = report
        .classes()
        .iter()
        .map(|c| ClassRow {
            class: c.class.name(),
            submitted: c.submitted,
            admitted: c.admitted,
            rejected: c.rejected,
            completed: c.completed,
            aborted: c.aborted,
            p50: c.hist.percentile(50.0),
            p90: c.hist.percentile(90.0),
            p99: c.hist.percentile(99.0),
            throughput_per_mcycle: if report.cycles == 0 {
                0.0
            } else {
                c.completed as f64 * 1.0e6 / report.cycles as f64
            },
        })
        .collect();
    let tenants = report
        .tenants
        .iter()
        .map(|t| TenantRow {
            name: t.name.clone(),
            class: t.class.name(),
            submitted: t.submitted,
            admitted: t.admitted,
            rejected: t.rejected(),
            completed: t.completed,
            p99: t.hist.percentile(99.0),
        })
        .collect();
    LoadLevel {
        load,
        cycles: report.cycles,
        modes_identical,
        fairness: report.fairness(),
        completed: report.completed(),
        rejected: report.rejected(),
        classes,
        tenants,
        violations: report.violations.clone(),
    }
}

/// Runs the sweep: every load level in both stepping modes on the
/// seeded worker pool, fingerprint-comparing the modes and reporting the
/// dense reference's stats.
pub fn run_service_grid(spec: &ServiceGridSpec) -> ServiceGridResults {
    let modes = Stepping::ALL;
    let jobs = spec.loads.len() * modes.len();
    let runs: Vec<(u64, Option<ServiceReport>)> = parallel_map(jobs, spec.threads, |j| {
        let load = spec.loads[j / modes.len()];
        let mode = modes[j % modes.len()];
        let mut s = slo_sweep(load, spec.seed);
        s.noc.stepping = mode;
        let report = run_service(&s).expect("preset sweep specs are valid");
        let fp = report.fingerprint();
        // Keep the full report only for the dense reference; the other
        // modes contribute their fingerprint.
        (fp, (j % modes.len() == 0).then_some(report))
    });
    let levels = spec
        .loads
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            let cell = &runs[i * modes.len()..(i + 1) * modes.len()];
            let reference = cell[0].1.as_ref().expect("dense run keeps its report");
            let modes_identical = cell.iter().all(|(fp, _)| *fp == cell[0].0);
            level_from(load, reference, modes_identical)
        })
        .collect();
    ServiceGridResults { levels }
}

impl ServiceGridResults {
    /// Whether every level is violation-free and bit-identical across
    /// the stepping modes.
    pub fn all_invariants_hold(&self) -> bool {
        self.levels.iter().all(|l| l.violations.is_empty() && l.modes_identical)
    }

    /// The highest load level (the saturation point of the sweep).
    ///
    /// # Panics
    ///
    /// Panics if the sweep ran zero levels.
    pub fn peak(&self) -> &LoadLevel {
        self.levels.iter().max_by_key(|l| l.load).expect("sweep has at least one level")
    }

    /// Whether the Guaranteed class's p99 stayed below BestEffort's at
    /// the highest load — the SLO-protection headline.
    pub fn qos_protected(&self) -> bool {
        let peak = self.peak();
        let p99 = |class: QosClass| {
            peak.classes.iter().find(|c| c.class == class.name()).map(|c| (c.completed, c.p99))
        };
        match (p99(QosClass::Guaranteed), p99(QosClass::BestEffort)) {
            (Some((gc, gp)), Some((bc, bp))) => gc > 0 && bc > 0 && gp < bp,
            _ => false,
        }
    }

    /// Admission rejections at the highest load.
    pub fn rejections_at_peak(&self) -> u64 {
        self.peak().rejected
    }

    /// The deterministic JSON report (`BENCH_service.json`): pure
    /// simulation outputs, byte-identical for any worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`, including the final flush.
    pub fn write_json(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"schema\": \"snacknoc-service-v1\",")?;
        writeln!(w, "  \"levels\": [")?;
        for (i, l) in self.levels.iter().enumerate() {
            let comma = if i + 1 == self.levels.len() { "" } else { "," };
            writeln!(w, "    {{\"load\": {}, \"cycles\": {},", l.load, l.cycles)?;
            writeln!(
                w,
                "     \"modes_identical\": {}, \"fairness\": {:.6}, \
                 \"completed\": {}, \"rejected\": {},",
                l.modes_identical, l.fairness, l.completed, l.rejected
            )?;
            writeln!(w, "     \"classes\": [")?;
            for (j, c) in l.classes.iter().enumerate() {
                let ccomma = if j + 1 == l.classes.len() { "" } else { "," };
                writeln!(
                    w,
                    "       {{\"class\": \"{}\", \"submitted\": {}, \"admitted\": {}, \
                     \"rejected\": {}, \"completed\": {}, \"aborted\": {}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                     \"throughput_per_mcycle\": {:.4}}}{ccomma}",
                    c.class,
                    c.submitted,
                    c.admitted,
                    c.rejected,
                    c.completed,
                    c.aborted,
                    c.p50,
                    c.p90,
                    c.p99,
                    c.throughput_per_mcycle
                )?;
            }
            writeln!(w, "     ],")?;
            writeln!(w, "     \"tenants\": [")?;
            for (j, t) in l.tenants.iter().enumerate() {
                let tcomma = if j + 1 == l.tenants.len() { "" } else { "," };
                writeln!(
                    w,
                    "       {{\"name\": \"{}\", \"class\": \"{}\", \"submitted\": {}, \
                     \"admitted\": {}, \"rejected\": {}, \"completed\": {}, \
                     \"p99\": {}}}{tcomma}",
                    json_escape(&t.name),
                    t.class,
                    t.submitted,
                    t.admitted,
                    t.rejected,
                    t.completed,
                    t.p99
                )?;
            }
            writeln!(w, "     ],")?;
            let violations = l
                .violations
                .iter()
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(w, "     \"violations\": [{violations}]}}{comma}")?;
        }
        writeln!(w, "  ],")?;
        writeln!(
            w,
            "  \"invariants_hold\": {}, \"qos_protected\": {}, \"rejections_at_peak\": {}",
            self.all_invariants_hold(),
            self.qos_protected(),
            self.rejections_at_peak(),
        )?;
        writeln!(w, "}}")?;
        w.flush()
    }

    /// The report as a string (what the determinism tests compare).
    ///
    /// # Panics
    ///
    /// Never — writing to a `Vec` is infallible.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf).expect("vec write");
        String::from_utf8(buf).expect("json is utf-8")
    }

    /// Prints the per-level, per-class summary table.
    pub fn print_table(&self) {
        let headers = [
            "load%", "class", "sub", "adm", "rej", "done", "p50", "p90", "p99", "thr/Mcyc",
            "fair", "modes",
        ];
        let rows: Vec<Vec<String>> = self
            .levels
            .iter()
            .flat_map(|l| {
                l.classes.iter().map(move |c| {
                    vec![
                        l.load.to_string(),
                        c.class.to_string(),
                        c.submitted.to_string(),
                        c.admitted.to_string(),
                        c.rejected.to_string(),
                        c.completed.to_string(),
                        c.p50.to_string(),
                        c.p90.to_string(),
                        c.p99.to_string(),
                        format!("{:.1}", c.throughput_per_mcycle),
                        format!("{:.3}", l.fairness),
                        if l.modes_identical { "=".into() } else { "DIVERGED".into() },
                    ]
                })
            })
            .collect();
        print_table(&headers, &rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_worker_count_invariant() {
        let serial = run_service_grid(&ServiceGridSpec::new(&[60, 140], 5).with_threads(1));
        let parallel = run_service_grid(&ServiceGridSpec::new(&[60, 140], 5).with_threads(4));
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert!(serial.all_invariants_hold(), "\n{}", serial.deterministic_json());
    }
}
