//! `snack_bench`: the SnackNoC simulator's end-to-end and per-layer
//! benchmark. README.md lists the workloads, the metrics and how to
//! compare two commits with it.
//!
//! One process measures one workload: a warm-up rep fixes the reference
//! simulated results, then timed reps run until `--seconds` is spent.
//! Every rep sets its workload up from the seed and runs it; the setup
//! and the run are timed separately. The last line of standard output is
//! one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`).

mod recorder;
mod stats;
mod workloads;

use recorder::{site_totals, Recorder, Role, Span};
use stats::{median, summarize, Summary};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Outcome, Workload};

const USAGE: &str = "usage: snack_bench --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--json PATH] [--spans PATH]
workloads: mesh-saturated idle-think kernel-suite kernel-faults service-slo";

/// The benchmark's definition; `run_seconds` is the measuring time when
/// `--seconds` is not given. The benchmark driver passes `--seconds`.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Fewest timed reps per run, of each kind, so quartiles exist.
const MIN_REPS: usize = 3;
const SPAN_CAPACITY: usize = 1 << 16;

/// End-to-end metrics, `(name, unit)`, exactly as in BENCHMARK.json.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("sim_cycles_per_s", "cycles/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, `(name, unit)`, exactly as in BENCHMARK.json. Only
/// what an optimisation may move: the exact simulated counts, which a
/// speed-only change must leave alone, are in `--json` and the gate.
const PER_LAYER: [(&str, &str); 8] = [
    ("sim.ns_per_cycle", "ns"),
    ("sim.call_p50_us", "us"),
    ("sim.call_tail_us", "us"),
    ("setup.gen_us", "us"),
    ("setup.prepare_us", "us"),
    ("bench.harness_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
    ("noc.pool_growth_events", "count"),
];

struct Options {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    json: Option<String>,
    spans: Option<String>,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut opts = Options {
            workload: None,
            seed: 42,
            seconds: 0.0,
            trace: false,
            smoke: false,
            json: None,
            spans: None,
        };
        let mut seconds = None;
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(0.0..=3_600.0).contains(&s) {
                        return Err(bad("expected 0 to 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--json" => opts.json = Some(value),
                "--spans" => opts.spans = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = workload.ok_or("--workload is required")?;
        if name != "all" {
            opts.workload = Some(
                Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
            );
        }
        opts.seconds = match seconds {
            Some(s) => s,
            None if opts.smoke => 0.0,
            None => json_u64(BENCHMARK_JSON, "run_seconds").ok_or("no run_seconds")? as f64,
        };
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("snack_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match opts.workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&opts),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("snack_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------ measuring

struct Measurement {
    workload: Workload,
    seed: u64,
    /// The warm-up rep's result, which every timed rep must repeat.
    reference: Outcome,
    attempted: u64,
    failed: u64,
    /// Untraced reps: host seconds of setup and of the run.
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Traced reps: host seconds of the run.
    traced_wall_s: Vec<f64>,
    rec: Recorder,
}

/// Sets up and runs one rep; returns its setup and run host seconds.
fn one_rep(
    w: Workload,
    seed: u64,
    smoke: bool,
    rec: &mut Recorder,
    rep: u32,
    traced: bool,
) -> (f64, f64, Outcome) {
    rec.start_rep(rep, traced);
    rec.enter(&recorder::REP);
    let t0 = Instant::now();
    rec.enter(&recorder::SETUP);
    let prepared = workloads::setup(w, seed, smoke, rec);
    rec.exit();
    let t1 = Instant::now();
    rec.enter(&recorder::RUN);
    let outcome = workloads::run(prepared, rec);
    rec.exit();
    let t2 = Instant::now();
    rec.exit();
    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), outcome)
}

/// A warm-up rep, then timed reps until `seconds` would be overrun; with
/// `trace`, every other timed rep is traced.
fn measure(w: Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Measurement {
    let mut rec = Recorder::new(SPAN_CAPACITY);
    let (_, _, reference) = one_rep(w, seed, smoke, &mut rec, 0, false);
    let expected = reference.fingerprint();
    let (mut attempted, mut failed) = (reference.units, reference.failed);
    let (mut setup_s, mut wall_s, mut traced_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for rep in 1.. {
        let traced = trace && rep % 2 == 0;
        let t = Instant::now();
        let (setup, wall, out) = one_rep(w, seed, smoke, &mut rec, rep, traced);
        attempted += out.units;
        failed += if out.fingerprint() == expected {
            out.failed
        } else {
            eprintln!("{}: rep {rep} simulated differently from the warm-up rep", w.name());
            out.units
        };
        if traced {
            traced_wall_s.push(wall);
        } else {
            setup_s.push(setup);
            wall_s.push(wall);
        }
        let enough = wall_s.len() >= MIN_REPS && (!trace || traced_wall_s.len() >= MIN_REPS);
        if enough && started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    Measurement {
        workload: w,
        seed,
        reference,
        attempted,
        failed,
        setup_s,
        wall_s,
        traced_wall_s,
        rec,
    }
}

// -------------------------------------------------------------- metrics

fn end_to_end(m: &Measurement) -> Vec<f64> {
    let wall = median(&m.wall_s);
    vec![
        median(&m.setup_s),
        wall,
        m.reference.sim_cycles as f64 / wall,
        peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
    ]
}

fn per_layer(m: &Measurement) -> Vec<f64> {
    let spans = m.rec.spans();
    let sim_site = m.workload.sim_site();
    let sim_ns: Vec<f64> =
        spans.iter().filter(|s| std::ptr::eq(s.site, sim_site)).map(|s| s.ns() as f64).collect();
    let sim = summarize(&sim_ns);
    let traced_cycles = m.reference.sim_cycles as f64 * m.traced_wall_s.len() as f64;
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "sim.ns_per_cycle" => sim_ns.iter().sum::<f64>() / traced_cycles.max(1.0),
            "sim.call_p50_us" => sim.median / 1e3,
            "sim.call_tail_us" => sim.tail.map_or(sim.median, |t| t.1) / 1e3,
            "setup.gen_us" => median(&role_per_rep(spans, Role::Gen)) / 1e3,
            "setup.prepare_us" => median(&role_per_rep(spans, Role::Prepare)) / 1e3,
            "bench.harness_frac" => harness_frac(spans),
            "bench.trace_overhead_frac" => median(&m.traced_wall_s) / median(&m.wall_s) - 1.0,
            _ => m.reference.count(name),
        })
        .collect()
}

/// Host ns each traced rep spent in calls of `role`.
fn role_per_rep(spans: &[Span], role: Role) -> Vec<f64> {
    let mut per_rep: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        let total = per_rep.entry(s.rep).or_default();
        if s.site.role == role {
            *total += s.ns() as f64;
        }
    }
    per_rep.into_values().collect()
}

/// Share of the traced runs' host time spent outside every layer call:
/// the benchmark's own loop and checks.
fn harness_frac(spans: &[Span]) -> f64 {
    let mut child_ns: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns() as f64;
        }
    }
    let (mut run, mut own) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        if std::ptr::eq(s.site, &recorder::RUN) {
            let ns = s.ns() as f64;
            run += ns;
            own += ns - child_ns.get(&(i as u32)).copied().unwrap_or(0.0);
        }
    }
    own / run.max(1.0)
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    proc_status_field("VmHWM:")?.split_whitespace().next()?.parse().ok()
}

/// CPUs this process may run on, as `nproc` counts them.
fn nproc() -> Option<usize> {
    let list = proc_status_field("Cpus_allowed_list:")?;
    list.trim()
        .split(',')
        .map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix(key)).map(str::to_string)
}

/// The checkout's commit, or `unknown` outside a git checkout. `--git-dir`
/// keeps git from searching directories above this one.
fn git_rev() -> String {
    Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

// --------------------------------------------------------------- output

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(table: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn summary_json(s: &Summary) -> String {
    let tail = s.tail.map_or_else(
        || "\"tail_pct\": null, \"tail\": null".to_string(),
        |(p, v)| format!("\"tail_pct\": {p}, \"tail\": {}", num(v)),
    );
    format!(
        "\"n\": {}, \"median\": {}, \"p25\": {}, \"p75\": {}, {tail}",
        s.n,
        num(s.median),
        num(s.p25),
        num(s.p75),
    )
}

/// The full record of one run: header, every metric with its spread,
/// every layer call and every simulated count.
fn detail_json(m: &Measurement, opts: &Options, e2e: &[f64], layer: Option<&[f64]>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\": \"snack-bench-v1\", \"header\": {{\"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"git_rev\": \"{}\"}}",
        m.workload.name(),
        m.seed,
        num(opts.seconds),
        opts.trace,
        opts.smoke,
        nproc().map_or_else(|| "null".to_string(), |n| n.to_string()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(),
    ));
    out.push_str(&format!(
        ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}",
        m.failed == 0,
        m.attempted,
        m.failed,
        num(m.failed as f64 / m.attempted as f64),
    ));
    let wall = e2e[1];
    let mut rows: Vec<String> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), &v)| {
            let spread = match name {
                "setup_s" => format!(", {}", summary_json(&summarize(&m.setup_s))),
                "wall_s" => format!(", {}", summary_json(&summarize(&m.wall_s))),
                _ => String::new(),
            };
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"{spread}}}", num(v))
        })
        .collect();
    let r = &m.reference;
    let mut extra = |name: &str, unit: &str, v: f64| {
        rows.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v)));
    };
    let flits = r.count("noc.injected_flits");
    if m.workload == Workload::MeshSaturated {
        extra("flits_per_s", "flits/s", flits / wall);
    }
    if r.kernels > 0 {
        extra("kernels_per_s", "kernels/s", r.kernels as f64 / wall);
    }
    extra("failed_frac", "fraction", m.failed as f64 / m.attempted as f64);
    extra("sim_cycles", "cycles", r.sim_cycles as f64);
    extra("sim_p99_latency_cycles", "cycles", r.count("sim.p99_latency_cycles"));
    if m.workload == Workload::ServiceSlo {
        extra("sim_reject_frac", "fraction", r.count("service.reject_frac"));
    }
    out.push_str(&format!(
        ", \"reps\": {{\"untraced\": {}, \"traced\": {}}}, \"end_to_end\": {{{}}}",
        m.wall_s.len(),
        m.traced_wall_s.len(),
        rows.join(", ")
    ));
    if let Some(values) = layer {
        out.push_str(&format!(", \"per_layer\": {}", metrics_json(&PER_LAYER, values)));
        let calls: Vec<String> = site_totals(m.rec.spans())
            .iter()
            .map(|t| {
                format!(
                    "{{\"layer\": \"{}\", \"function\": \"{}\", \"spans\": {}, \"calls\": {}, \
                     \"total_ns\": {}, \"ns_per_call\": {}, \"span_ns\": {{{}}}}}",
                    t.site.layer,
                    t.site.function,
                    t.durations.len(),
                    t.calls,
                    num(t.total_ns()),
                    num(t.total_ns() / t.calls.max(1) as f64),
                    summary_json(&summarize(&t.durations)),
                )
            })
            .collect();
        out.push_str(&format!(", \"calls\": [{}]", calls.join(", ")));
    }
    let counts: Vec<String> =
        r.counts.iter().map(|(name, v)| format!("\"{name}\": {}", num(*v))).collect();
    out.push_str(&format!(", \"counts\": {{{}}}}}", counts.join(", ")));
    out
}

fn print_table(title: &str, table: &[(&str, &str)], values: &[f64]) {
    eprintln!("  {title}");
    for (&(name, unit), v) in table.iter().zip(values) {
        eprintln!("    {name:<34} {:>16.6} {unit}", v);
    }
}

fn run_one(w: Workload, opts: &Options) -> Result<bool, String> {
    let t = Instant::now();
    let m = measure(w, opts.seed, opts.seconds, opts.trace, opts.smoke);
    let e2e = end_to_end(&m);
    let layer = opts.trace.then(|| per_layer(&m));
    eprintln!(
        "snack_bench {}: seed {}, {} untraced + {} traced reps after a warm-up, {:.1} s",
        w.name(),
        opts.seed,
        m.wall_s.len(),
        m.traced_wall_s.len(),
        t.elapsed().as_secs_f64(),
    );
    print_table("end to end", &END_TO_END, &e2e);
    if let Some(values) = &layer {
        print_table("per layer", &PER_LAYER, values);
    }
    eprintln!("  {} units attempted, {} failed", m.attempted, m.failed);
    if let Some(path) = &opts.spans {
        let file = fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = BufWriter::new(file);
        m.rec
            .write_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.json {
        let doc = detail_json(&m, opts, &e2e, layer.as_deref());
        fs::write(path, doc + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    let metrics = match &layer {
        Some(values) => metrics_json(&PER_LAYER, values),
        None => metrics_json(&END_TO_END, &e2e),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
    );
    Ok(m.failed == 0)
}

/// The integer after `"key": ` in a line this program printed.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// Runs each workload in a process of its own, in table order, so peak
/// RSS and allocator state belong to one workload, then merges the results.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    let (mut lines, mut docs) = (Vec::new(), Vec::new());
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let doc_path = opts.json.as_ref().map(|p| format!("{p}.{}", w.name()));
        if let Some(p) = &doc_path {
            cmd.args(["--json", p]);
        }
        if let Some(p) = &opts.spans {
            cmd.args(["--spans", &format!("{p}.{}", w.name())]);
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_string();
        ok &= out.status.success();
        attempted += json_u64(&line, "attempted").unwrap_or(0);
        failed += json_u64(&line, "failed").unwrap_or(1);
        lines.push(format!("\"{}\": {}", w.name(), if line.is_empty() { "null" } else { &line }));
        if let Some(p) = doc_path {
            let doc = fs::read_to_string(&p).unwrap_or_else(|_| "null".to_string());
            // The child's file is folded into the merged document.
            let _ = fs::remove_file(&p);
            docs.push(format!("\"{}\": {}", w.name(), doc.trim()));
        }
    }
    if let Some(path) = &opts.json {
        let doc =
            format!("{{\"schema\": \"snack-bench-v1\", \"workloads\": {{{}}}}}\n", docs.join(", "));
        fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        ok && failed == 0,
        lines.join(", ")
    );
    Ok(ok && failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each entry of one array in BENCHMARK.json.
    fn entries(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{section}\":")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .map_or(String::new(), |v| v[..v.find('"').expect("closed string")].to_string())
        };
        body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_and_workload_names_match_benchmark_json() {
        let json = BENCHMARK_JSON;
        assert_eq!(entries(json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(entries(json, "per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = entries(json, "workloads").into_iter().map(|e| e.0).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn reps_repeat_traced_or_not_and_pass_the_gate() {
        for w in Workload::ALL {
            let mut rec = Recorder::new(0);
            let first = one_rep(w, 42, true, &mut rec, 0, false).2;
            let again = one_rep(w, 42, true, &mut rec, 1, false).2;
            let traced = one_rep(w, 42, true, &mut rec, 2, true).2;
            assert_eq!(first.failed, 0, "{}: a unit failed", w.name());
            assert!(first.sim_cycles > 0, "{}: nothing simulated", w.name());
            assert_eq!(first.fingerprint(), again.fingerprint(), "{}: reps differ", w.name());
            assert_eq!(
                first.fingerprint(),
                traced.fingerprint(),
                "{}: tracing changed results",
                w.name()
            );
            assert!(!rec.spans().is_empty(), "{}: the traced rep recorded nothing", w.name());
        }
    }

    #[test]
    fn a_traced_measurement_reports_every_metric() {
        let m = measure(Workload::KernelSuite, 7, 0.0, true, true);
        assert_eq!(m.failed, 0);
        assert!(m.attempted > 0);
        let e2e = end_to_end(&m);
        assert!(e2e.iter().take(3).all(|v| v.is_finite() && *v > 0.0), "{e2e:?}");
        let layer = per_layer(&m);
        assert_eq!(layer.len(), PER_LAYER.len());
        assert!(layer.iter().all(|v| v.is_finite()), "{layer:?}");
        assert!(layer[..5].iter().all(|v| *v > 0.0), "host times must be measured: {layer:?}");
    }

    #[test]
    fn seed_42_reproduces_the_paper_figure_binaries() {
        // fig9_kernel_speedup's SnackCycles and run_service(slo_sweep(140, 42)).
        let mut rec = Recorder::new(0);
        let suite = one_rep(Workload::KernelSuite, 42, false, &mut rec, 0, false).2;
        let cycles = ["sgemm", "reduction", "mac", "spmv"]
            .map(|k| suite.count(&format!("core.kernel_cycles.{k}")));
        assert_eq!(cycles, [7178.0, 4295.0, 4297.0, 3035.0]);
        let slo = one_rep(Workload::ServiceSlo, 42, false, &mut rec, 0, false).2;
        assert_eq!((slo.count("service.completed"), slo.count("service.rejected")), (490.0, 102.0));
    }

    #[test]
    fn options_reject_bad_input() {
        let parse = |s: &str| Options::parse(s.split_whitespace().map(str::to_string));
        assert!(parse("--workload idle-think --trace 1 --seed 3")
            .is_ok_and(|o| o.trace && o.seed == 3 && o.seconds > 0.0));
        assert!(
            parse("--workload all --smoke").is_ok_and(|o| o.workload.is_none() && o.seconds == 0.0)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seconds -1",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn json_u64_reads_this_programs_lines() {
        let line = "{\"correct\": true, \"attempted\": 28, \"failed\": 0, \"metrics\": {}}";
        assert_eq!(json_u64(line, "attempted"), Some(28));
        assert_eq!(json_u64(line, "failed"), Some(0));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
