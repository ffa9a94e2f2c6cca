//! Deterministic parallel sweep subsystem.
//!
//! The paper's evaluation (Figs. 2–3, 11–13, Table III) is a large
//! cross-product of `{benchmark | kernel} × {NoC config} × {seed}`. This
//! module runs such grids over a `std`-only worker pool
//! ([`std::thread::scope`] workers claiming cells off an atomic queue) and
//! merges results **in cell-index order**, so every simulation output is
//! bit-identical to a serial run regardless of the thread count
//! (`tests/determinism.rs` and `tests/properties.rs` prove
//! `threads = 1 == threads = N`).
//!
//! Two layers, lowest first:
//!
//! 1. [`parallel_map`] — deterministic order-preserving parallel map over
//!    job indices (also used by `examples/multiprogram.rs`).
//! 2. [`SweepSpec`] / [`run_sweep`] — the declarative grid the
//!    `snack-sweep` binary exposes: benchmark and kernel cells over the
//!    Table I presets, with JSON (`BENCH_sweep.json`) and CSV emission.
//!
//! Host wall-clock timings are inherently nondeterministic, so
//! [`SweepResults`] splits its report: the per-cell *simulation* metrics
//! (cycles, deliveries, utilization) are byte-stable across thread counts
//! ([`SweepResults::deterministic_json`]), while timing and worker
//! utilization live in a separate `timing` section that only the full
//! report ([`SweepResults::write_json`]) includes.

use crate::experiments::run_snack_kernel;
use crate::harness::{summarize, BenchStats};
use crate::table::print_table;
use snacknoc_noc::{NocConfig, NocPreset, TrafficClass};
use snacknoc_workloads::kernels::Kernel;
use snacknoc_workloads::runner::run_benchmark;
use snacknoc_workloads::suite::{profile, Benchmark};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Layer 1: the deterministic worker pool.
// ---------------------------------------------------------------------------

/// Runs `f(0..jobs)` across up to `threads` scoped worker threads and
/// returns the results **in job-index order**, regardless of which worker
/// finished which job when.
///
/// Workers claim indices off a shared atomic counter (dynamic load
/// balancing: a slow cell never stalls the queue behind it) and publish
/// into a per-index slot, so the merged output is bit-identical to the
/// `threads == 1` serial run whenever `f` itself is deterministic.
pub fn parallel_map<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, jobs.max(1));
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = f(i);
                let prev = slots[i].lock().expect("slot poisoned").replace(result);
                assert!(prev.is_none(), "job {i} claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("slot poisoned")
                .expect("scope joined all workers")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Layer 2: the declarative sweep grid.
// ---------------------------------------------------------------------------

/// What a sweep cell simulates.
#[derive(Clone, Copy, Debug)]
pub enum CellWorkload {
    /// One Table III benchmark profile, scaled by `scale` (CI runs use
    /// small factors; `1.0` is paper scale).
    Benchmark {
        /// The benchmark application.
        benchmark: Benchmark,
        /// Request-quota scale factor (see `BenchmarkProfile::scaled`).
        scale: f64,
    },
    /// One SnackNoC kernel at `size`, run to completion on a zero-load
    /// platform and verified against the reference interpreter.
    Kernel {
        /// The kernel.
        kernel: Kernel,
        /// The kernel input size.
        size: usize,
    },
}

/// One cell of the sweep grid.
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// The workload to simulate.
    pub workload: CellWorkload,
    /// The NoC baseline configuration (paper Table I).
    pub preset: NocPreset,
    /// The simulation seed.
    pub seed: u64,
}

impl SweepCell {
    /// The cell's display name, `workload/preset/s<seed>`.
    pub fn name(&self) -> String {
        match self.workload {
            CellWorkload::Benchmark { benchmark, .. } => {
                format!("{benchmark}/{}/s{}", self.preset, self.seed)
            }
            CellWorkload::Kernel { kernel, size } => {
                format!("{kernel}-{size}/{}/s{}", self.preset, self.seed)
            }
        }
    }
}

/// A declarative sweep: a list of cells plus execution knobs.
#[derive(Debug)]
pub struct SweepSpec {
    /// The grid cells, in merge (output) order.
    pub cells: Vec<SweepCell>,
    /// Worker threads (1 = serial; output is identical either way).
    pub threads: usize,
    /// Timed repetitions per cell for wall-clock statistics. Simulation
    /// outputs are taken from the first repetition (repetitions are
    /// bit-identical by construction).
    pub samples: u32,
}

impl SweepSpec {
    /// Builds the full `benchmarks × presets × seeds` grid in row-major
    /// order (benchmark outermost, seed innermost), every benchmark scaled
    /// by `scale`.
    pub fn grid(benchmarks: &[Benchmark], presets: &[NocPreset], seeds: &[u64], scale: f64) -> Self {
        let mut cells = Vec::with_capacity(benchmarks.len() * presets.len() * seeds.len());
        for &benchmark in benchmarks {
            for &preset in presets {
                for &seed in seeds {
                    cells.push(SweepCell {
                        workload: CellWorkload::Benchmark { benchmark, scale },
                        preset,
                        seed,
                    });
                }
            }
        }
        SweepSpec { cells, threads: 1, samples: 1 }
    }

    /// Appends a `kernels × presets × seeds` sub-grid at kernel input
    /// `size`.
    #[must_use]
    pub fn with_kernels(
        mut self,
        kernels: &[Kernel],
        size: usize,
        presets: &[NocPreset],
        seeds: &[u64],
    ) -> Self {
        for &kernel in kernels {
            for &preset in presets {
                for &seed in seeds {
                    self.cells.push(SweepCell {
                        workload: CellWorkload::Kernel { kernel, size },
                        preset,
                        seed,
                    });
                }
            }
        }
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets timed repetitions per cell.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    #[must_use]
    pub fn with_samples(mut self, samples: u32) -> Self {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
        self
    }
}

/// The merged outcome of one sweep cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Cell display name (`workload/preset/s<seed>`).
    pub name: String,
    /// Simulated cycles: application runtime for benchmark cells, kernel
    /// completion latency for kernel cells.
    pub runtime_cycles: u64,
    /// Benchmark cells: the run finished under the safety cap. Kernel
    /// cells: the outputs matched the reference interpreter bit-for-bit.
    pub finished: bool,
    /// Requests completed (benchmark cells) or instructions executed
    /// (kernel cells).
    pub completed: u64,
    /// Median router crossbar utilization (benchmark cells; 0 for kernel
    /// cells, which run on a zero-load network).
    pub median_crossbar: f64,
    /// Peak router crossbar utilization (benchmark cells; 0 for kernels).
    pub peak_crossbar: f64,
    /// Mean end-to-end communication-class packet latency in cycles
    /// (benchmark cells; 0 for kernels).
    pub mean_comm_latency: f64,
    /// Host wall-clock statistics over the cell's timed repetitions.
    pub wall: BenchStats,
}

/// Worker-pool accounting for one sweep execution.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Workers the pool actually ran.
    pub workers: usize,
    /// Cells each worker claimed.
    pub cells_per_worker: Vec<u64>,
    /// Nanoseconds each worker spent running cells.
    pub busy_ns_per_worker: Vec<u64>,
    /// Wall-clock nanoseconds for the whole sweep.
    pub elapsed_ns: u64,
}

impl PoolStats {
    /// Mean worker utilization in `[0, 1]`: busy time over
    /// `workers × elapsed`.
    pub fn utilization(&self) -> f64 {
        if self.elapsed_ns == 0 || self.workers == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_ns_per_worker.iter().sum();
        busy as f64 / (self.workers as f64 * self.elapsed_ns as f64)
    }

    /// Completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        let cells: u64 = self.cells_per_worker.iter().sum();
        cells as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// The outcome of [`run_sweep`]: per-cell results in cell-index order plus
/// pool accounting.
#[derive(Clone, Debug)]
pub struct SweepResults {
    /// Per-cell results, merged in cell-index order.
    pub cells: Vec<CellResult>,
    /// Worker-pool accounting (nondeterministic; excluded from
    /// [`SweepResults::deterministic_json`]).
    pub pool: PoolStats,
}

/// Runs one cell once, returning its simulation outcome.
fn execute_cell(cell: &SweepCell) -> (u64, bool, u64, f64, f64, f64) {
    let cfg = NocConfig::preset(cell.preset);
    match cell.workload {
        CellWorkload::Benchmark { benchmark, scale } => {
            let p = profile(benchmark).scaled(scale);
            let r = run_benchmark(&p, cfg, cell.seed).expect("preset configs are valid");
            let comm = r.stats.class(TrafficClass::Communication);
            (
                r.runtime_cycles,
                r.finished,
                r.completed_requests,
                r.median_crossbar(),
                r.peak_crossbar(),
                comm.mean_latency(),
            )
        }
        CellWorkload::Kernel { kernel, size } => {
            let r = run_snack_kernel(kernel, size, cfg, cell.seed);
            (r.cycles, r.verified, r.instructions as u64, 0.0, 0.0, 0.0)
        }
    }
}

/// Runs one cell `samples` times, keeping the (identical) simulation
/// outputs of the first repetition and the wall-clock of each.
fn run_cell(cell: &SweepCell, samples: u32) -> CellResult {
    let name = cell.name();
    let mut timings = Vec::with_capacity(samples as usize);
    let mut sim = None;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        let outcome = execute_cell(cell);
        timings.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        sim.get_or_insert(outcome);
    }
    let (runtime_cycles, finished, completed, median_crossbar, peak_crossbar, mean_comm_latency) =
        sim.expect("at least one repetition ran");
    CellResult {
        wall: summarize(&name, &timings),
        name,
        runtime_cycles,
        finished,
        completed,
        median_crossbar,
        peak_crossbar,
        mean_comm_latency,
    }
}

/// Executes the sweep: workers claim cells off an atomic queue, results
/// merge in cell-index order (bit-identical for any thread count).
pub fn run_sweep(spec: &SweepSpec) -> SweepResults {
    let jobs = spec.cells.len();
    let workers = spec.threads.clamp(1, jobs.max(1));
    let slots: Vec<OnceLock<CellResult>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let cells_per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let busy_ns_per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let slots = &slots;
            let next = &next;
            let cells_per_worker = &cells_per_worker;
            let busy_ns_per_worker = &busy_ns_per_worker;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let c0 = Instant::now();
                let result = run_cell(&spec.cells[i], spec.samples);
                let busy = u64::try_from(c0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                cells_per_worker[w].fetch_add(1, Ordering::Relaxed);
                busy_ns_per_worker[w].fetch_add(busy, Ordering::Relaxed);
                if slots[i].set(result).is_err() {
                    unreachable!("cell {i} claimed twice");
                }
            });
        }
    });
    SweepResults {
        cells: slots.into_iter().map(|c| c.into_inner().expect("pool joined")).collect(),
        pool: PoolStats {
            workers,
            cells_per_worker: cells_per_worker.into_iter().map(AtomicU64::into_inner).collect(),
            busy_ns_per_worker: busy_ns_per_worker.into_iter().map(AtomicU64::into_inner).collect(),
            elapsed_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        },
    }
}

/// Minimal JSON string escaping (cell names are plain ASCII, but stay
/// correct for anything).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` for JSON: Rust's shortest round-trip representation,
/// which is deterministic for identical bit patterns.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        // JSON has no NaN/inf; encode as null (documented lossy corner).
        "null".to_string()
    }
}

impl SweepResults {
    fn write_cells(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "  \"cells\": [")?;
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"runtime_cycles\": {}, \"finished\": {}, \
                 \"completed\": {}, \"median_crossbar\": {}, \"peak_crossbar\": {}, \
                 \"mean_comm_latency\": {}}}{comma}",
                json_escape(&c.name),
                c.runtime_cycles,
                c.finished,
                c.completed,
                json_f64(c.median_crossbar),
                json_f64(c.peak_crossbar),
                json_f64(c.mean_comm_latency),
            )?;
        }
        writeln!(w, "  ]")
    }

    /// The deterministic (simulation-only) JSON report: byte-identical
    /// for any worker-thread count. This is what the determinism and
    /// property tests compare.
    ///
    /// # Panics
    ///
    /// Never — writing to a `Vec` is infallible.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let mut buf = Vec::new();
        writeln!(&mut buf, "{{").expect("vec write");
        self.write_cells(&mut buf).expect("vec write");
        writeln!(&mut buf, "}}").expect("vec write");
        String::from_utf8(buf).expect("json is utf-8")
    }

    /// Writes the full `BENCH_sweep.json` report: the deterministic cell
    /// section plus per-cell wall statistics and pool accounting.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`, including the final flush.
    pub fn write_json(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        write!(w, "  \"cells\": [")?;
        writeln!(w)?;
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"runtime_cycles\": {}, \"finished\": {}, \
                 \"completed\": {}, \"median_crossbar\": {}, \"peak_crossbar\": {}, \
                 \"mean_comm_latency\": {}, \"wall\": {{\"samples\": {}, \"median_ns\": {}, \
                 \"p90_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}}}{comma}",
                json_escape(&c.name),
                c.runtime_cycles,
                c.finished,
                c.completed,
                json_f64(c.median_crossbar),
                json_f64(c.peak_crossbar),
                json_f64(c.mean_comm_latency),
                c.wall.samples,
                c.wall.median_ns,
                c.wall.p90_ns,
                c.wall.min_ns,
                c.wall.max_ns,
            )?;
        }
        writeln!(w, "  ],")?;
        writeln!(w, "  \"timing\": {{")?;
        writeln!(w, "    \"workers\": {},", self.pool.workers)?;
        writeln!(w, "    \"elapsed_ns\": {},", self.pool.elapsed_ns)?;
        writeln!(w, "    \"cells_per_sec\": {},", json_f64(self.pool.cells_per_sec()))?;
        writeln!(w, "    \"worker_utilization\": {},", json_f64(self.pool.utilization()))?;
        writeln!(
            w,
            "    \"cells_per_worker\": [{}],",
            self.pool
                .cells_per_worker
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        writeln!(
            w,
            "    \"busy_ns_per_worker\": [{}]",
            self.pool
                .busy_ns_per_worker
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        writeln!(w, "  }}")?;
        writeln!(w, "}}")?;
        w.flush()
    }

    /// Writes per-cell wall statistics as CSV
    /// (`bench,samples,median_ns,p90_ns,min_ns,max_ns`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`, including the final flush.
    pub fn write_csv(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "bench,samples,median_ns,p90_ns,min_ns,max_ns")?;
        for c in &self.cells {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                c.name, c.wall.samples, c.wall.median_ns, c.wall.p90_ns, c.wall.min_ns, c.wall.max_ns
            )?;
        }
        w.flush()
    }

    /// Prints the per-cell summary table and the pool throughput line.
    pub fn print_table(&self) {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    c.runtime_cycles.to_string(),
                    if c.finished { "yes".into() } else { "NO".into() },
                    format!("{:.2}%", 100.0 * c.median_crossbar),
                    format!("{:.2}%", 100.0 * c.peak_crossbar),
                    crate::harness::fmt_ns(c.wall.median_ns),
                ]
            })
            .collect();
        print_table(
            &["cell", "sim cycles", "finished", "median xbar", "peak xbar", "wall median"],
            &rows,
        );
        println!(
            "{} cells on {} worker(s): {:.2} cells/sec, {:.0}% worker utilization, {} total",
            self.cells.len(),
            self.pool.workers,
            self.pool.cells_per_sec(),
            100.0 * self.pool.utilization(),
            crate::harness::fmt_ns(self.pool.elapsed_ns),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_runs_every_job() {
        for threads in [1, 2, 4, 9] {
            let out = parallel_map(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn grid_orders_cells_row_major() {
        let spec = SweepSpec::grid(
            &[Benchmark::Fmm, Benchmark::Radix],
            &[NocPreset::Dapper, NocPreset::BiNoChs],
            &[1, 2],
            0.01,
        );
        assert_eq!(spec.cells.len(), 8);
        assert_eq!(spec.cells[0].name(), "FMM/DAPPER/s1");
        assert_eq!(spec.cells[1].name(), "FMM/DAPPER/s2");
        assert_eq!(spec.cells[2].name(), "FMM/BiNoCHS/s1");
        assert_eq!(spec.cells[7].name(), "Radix/BiNoCHS/s2");
        let with_k = spec.with_kernels(&[Kernel::Spmv], 12, &[NocPreset::Dapper], &[7]);
        assert_eq!(with_k.cells.len(), 9);
        assert_eq!(with_k.cells[8].name(), "SPMV-12/DAPPER/s7");
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let spec = SweepSpec::grid(
            &[Benchmark::Fmm, Benchmark::Cholesky],
            &[NocPreset::BiNoChs],
            &[3],
            0.004,
        )
        .with_kernels(&[Kernel::Mac], 16, &[NocPreset::BiNoChs], &[3]);
        let serial = run_sweep(&SweepSpec { cells: spec.cells.clone(), threads: 1, samples: 1 });
        let parallel = run_sweep(&SweepSpec { cells: spec.cells.clone(), threads: 4, samples: 1 });
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
        assert!(serial.cells.iter().all(|c| c.finished), "all cells complete");
        assert_eq!(parallel.pool.cells_per_worker.iter().sum::<u64>(), 3);
    }

    #[test]
    fn json_reports_are_wellformed() {
        let spec = SweepSpec::grid(&[Benchmark::Fmm], &[NocPreset::BiNoChs], &[1], 0.004);
        let results = run_sweep(&spec);
        let det = results.deterministic_json();
        assert!(det.contains("\"cells\""));
        assert!(det.contains("FMM/BiNoCHS/s1"));
        assert!(!det.contains("wall"), "deterministic report excludes host timing");
        let mut buf = Vec::new();
        results.write_json(&mut buf).unwrap();
        let full = String::from_utf8(buf).unwrap();
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"worker_utilization\""));
        assert!(full.contains("\"median_ns\""));
        let mut csv = Vec::new();
        results.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert_eq!(csv.lines().next().unwrap(), "bench,samples,median_ns,p90_ns,min_ns,max_ns");
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn json_escaping_and_floats() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\t"), "tab\\u0009");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
