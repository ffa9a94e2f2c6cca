//! Minimal shared command-line parsing for the `snack-*` driver binaries.
//!
//! Every driver declares the set of **valued** options (`--name <value>`)
//! and boolean **switches** (`--name`) it understands; anything else on
//! the command line is an error: the binary prints the offending token
//! plus its usage string to stderr and exits with status 2. `--help`
//! (or `-h`) prints the usage string to stdout and exits 0.
//!
//! This replaces the older per-binary `arg_str`/`has_flag` helpers,
//! which silently ignored misspelled flags — a sweep run with
//! `--thread 8` would quietly fall back to the default thread count.
//!
//! [`write_or_exit`] is the report writer the `snack-*` binaries share:
//! a report that cannot be written is an error (exit 1), never a panic
//! or a silent success. [`CliArgs::report_path`] picks where a binary
//! writes: only a default run may replace its committed capture.

use snacknoc_workloads::kernels::Kernel;
use std::fs::File;
use std::io::{self, BufWriter, Write};

/// Parsed command line for one driver binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliArgs {
    usage: String,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

/// What went wrong while parsing, plus the usage text to print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// An option not in the declared sets (includes misspellings).
    UnknownOption(String),
    /// A declared valued option appeared without a following value.
    MissingValue(String),
    /// `--help`/`-h` was given: print usage and exit 0.
    HelpRequested,
}

impl CliArgs {
    /// Parses `args` (exclusive of the program name) against the declared
    /// option sets.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] on unknown options, valued options missing
    /// their value, or an explicit `--help`.
    pub fn parse_from<I, S>(
        args: I,
        usage: &str,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<CliArgs, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = CliArgs {
            usage: usage.to_string(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.into_iter().map(Into::into).peekable();
        while let Some(tok) = it.next() {
            if tok == "--help" || tok == "-h" {
                return Err(CliError::HelpRequested);
            }
            let Some(name) = tok.strip_prefix("--") else {
                return Err(CliError::UnknownOption(tok));
            };
            if valued.contains(&name) {
                match it.next() {
                    Some(v) => out.values.push((name.to_string(), v)),
                    None => return Err(CliError::MissingValue(tok)),
                }
            } else if switches.contains(&name) {
                out.switches.push(name.to_string());
            } else {
                return Err(CliError::UnknownOption(tok));
            }
        }
        Ok(out)
    }

    /// Parses the process arguments; on any [`CliError`], prints the
    /// diagnostic (stderr) or usage (stdout for `--help`) and exits the
    /// process with the conventional status (2 for errors, 0 for help).
    pub fn parse(usage: &str, valued: &[&str], switches: &[&str]) -> CliArgs {
        match Self::parse_from(std::env::args().skip(1), usage, valued, switches) {
            Ok(a) => a,
            Err(CliError::HelpRequested) => {
                // A reader that hung up (`--help | head -c 1`) is no error.
                let _ = writeln!(io::stdout().lock(), "{usage}");
                std::process::exit(0);
            }
            Err(e) => {
                match e {
                    CliError::UnknownOption(tok) => eprintln!("error: unknown option '{tok}'"),
                    CliError::MissingValue(tok) => eprintln!("error: option '{tok}' needs a value"),
                    CliError::HelpRequested => unreachable!("handled above"),
                }
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    /// The declared usage string.
    pub fn usage(&self) -> &str {
        &self.usage
    }

    /// Raw value of `--name`, if present (last occurrence wins).
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Value of `--name` or `default`.
    pub fn str_or(&self, name: &str, default: &str) -> String {
        self.str_opt(name).unwrap_or(default).to_string()
    }

    /// Whether the boolean switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// `--name` parsed as `u64`, or `default`; a malformed value is a
    /// usage error (exit 2).
    pub fn u64_or(&self, name: &str, default: u64) -> u64 {
        self.parsed_or(name, default)
    }

    /// `--name` parsed as a positive integer, or `default`; zero or a
    /// malformed value is a usage error (exit 2) that names the flag.
    pub fn positive_or(&self, name: &str, default: usize) -> usize {
        let v = self.parsed_or(name, default);
        if v == 0 {
            self.fail(&format!("--{name} must be positive, got 0"));
        }
        v
    }

    /// `--name` parsed as `f64`, or `default`; a malformed value is a
    /// usage error (exit 2).
    pub fn f64_or(&self, name: &str, default: f64) -> f64 {
        self.parsed_or(name, default)
    }

    /// `--name` as a comma-separated kernel list (`all` for every
    /// kernel), or `default`; an unknown kernel is a usage error (exit 2).
    pub fn kernels_or(&self, name: &str, default: &[Kernel]) -> Vec<Kernel> {
        match self.str_opt(name) {
            None => default.to_vec(),
            Some(spec) if spec.eq_ignore_ascii_case("all") => Kernel::ALL.to_vec(),
            Some(spec) => spec
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|k| self.kernel(k))
                .collect(),
        }
    }

    /// The kernel called `name`, case-insensitively; an unknown name is
    /// a usage error (exit 2).
    pub fn kernel(&self, name: &str) -> Kernel {
        Kernel::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
            .unwrap_or_else(|| {
                self.fail(&format!(
                    "unknown kernel '{name}' (known: {})",
                    Kernel::ALL.map(Kernel::name).join(", ")
                ))
            })
    }

    fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.str_opt(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| self.fail(&format!("bad value for --{name}: '{v}'"))),
        }
    }

    /// Where a binary writes its JSON report: the `--json` path when
    /// given, else its committed capture `capture` — but only on a
    /// default run, one with no option or switch besides `--json` and
    /// those in `neutral` (options that leave the report unchanged, such
    /// as a thread count). Any other run without `--json` writes nothing
    /// (`None`), so a smoke or custom grid never replaces the capture.
    pub fn report_path(&self, capture: &str, neutral: &[&str]) -> Option<String> {
        if let Some(path) = self.str_opt("json") {
            return Some(path.to_string());
        }
        let custom = self
            .values
            .iter()
            .map(|(name, _)| name)
            .chain(&self.switches)
            .any(|name| !neutral.contains(&name.as_str()));
        (!custom).then(|| capture.to_string())
    }

    /// Prints `msg` and the usage string to stderr, then exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }
}

/// Writes the report to `path` through [`write_or_exit`] and names it
/// on stdout as `json: PATH`; with no path (a non-default run without
/// `--json`, see [`CliArgs::report_path`]) writes nothing and says so.
pub fn write_report(
    bin: &str,
    path: Option<&str>,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) {
    match path {
        Some(path) => {
            write_or_exit(bin, path, write);
            println!("json: {path}");
        }
        None => {
            println!("json: not written (only a default run writes its capture; use --json PATH)");
        }
    }
}

/// Creates `path` and hands `write` a buffered writer over it, flushing
/// it afterwards. On any I/O error prints `BIN: cannot write PATH: ERR`
/// to stderr, with `bin` the binary's name, and exits 1.
pub fn write_or_exit(
    bin: &str,
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) {
    let written = File::create(path).and_then(|file| {
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        w.flush()
    });
    if let Err(e) = written {
        eprintln!("{bin}: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: demo [--size N] [--json PATH] [--smoke]";

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse_from(args.iter().copied(), USAGE, &["size", "json"], &["smoke"])
    }

    #[test]
    fn accepts_declared_options_and_switches() {
        let a = parse(&["--size", "12", "--smoke"]).unwrap();
        assert_eq!(a.u64_or("size", 0), 12);
        assert!(a.switch("smoke"));
        assert!(!a.switch("other"));
        assert_eq!(a.str_opt("json"), None);
        assert_eq!(a.str_or("json", "out.json"), "out.json");
    }

    #[test]
    fn rejects_unknown_options() {
        assert_eq!(
            parse(&["--sizes", "12"]),
            Err(CliError::UnknownOption("--sizes".into()))
        );
        assert_eq!(parse(&["size"]), Err(CliError::UnknownOption("size".into())));
    }

    #[test]
    fn rejects_missing_values_and_handles_help() {
        assert_eq!(parse(&["--size"]), Err(CliError::MissingValue("--size".into())));
        assert_eq!(parse(&["--help"]), Err(CliError::HelpRequested));
        assert_eq!(parse(&["-h"]), Err(CliError::HelpRequested));
    }

    #[test]
    fn last_occurrence_wins_and_defaults_parse() {
        let a = parse(&["--size", "3", "--size", "9"]).unwrap();
        assert_eq!(a.u64_or("size", 0), 9);
        assert_eq!(a.positive_or("size", 1), 9);
        assert_eq!(a.positive_or("missing", 4), 4);
        assert_eq!(a.f64_or("missing", 1.5), 1.5);
    }

    #[test]
    fn only_a_default_run_writes_the_committed_capture() {
        let valued = ["size", "json", "threads"];
        let path = |args: &[&str]| {
            CliArgs::parse_from(args.iter().copied(), USAGE, &valued, &["smoke"])
                .unwrap()
                .report_path("BENCH_demo.json", &["threads"])
        };
        assert_eq!(path(&[]).as_deref(), Some("BENCH_demo.json"));
        assert_eq!(path(&["--threads", "2"]).as_deref(), Some("BENCH_demo.json"));
        assert_eq!(path(&["--smoke"]), None);
        assert_eq!(path(&["--size", "8", "--threads", "2"]), None);
        assert_eq!(path(&["--smoke", "--json", "out.json"]).as_deref(), Some("out.json"));
    }

    #[test]
    fn kernel_lists_parse_case_insensitively() {
        let parse = |args: &[&str]| {
            CliArgs::parse_from(args.iter().copied(), USAGE, &["kernels"], &[]).unwrap()
        };
        let all = [Kernel::Sgemm, Kernel::Reduction, Kernel::Mac, Kernel::Spmv];
        assert_eq!(parse(&[]).kernels_or("kernels", &[Kernel::Mac]), [Kernel::Mac]);
        assert_eq!(parse(&["--kernels", "ALL"]).kernels_or("kernels", &[]), all);
        assert_eq!(
            parse(&["--kernels", "spmv, sgemm,"]).kernels_or("kernels", &[]),
            [Kernel::Spmv, Kernel::Sgemm]
        );
    }
}
