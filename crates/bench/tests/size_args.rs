//! Out-of-range numbers are usage errors, not crashes: each `snack-*`
//! driver that takes a kernel size exits 2 on a zero size and names the
//! flag instead of panicking inside the kernel builder, and `snack-chaos`
//! does the same for a fault rate it cannot use.

use std::process::Command;

/// Each driver with a kernel-size flag, the path Cargo built it at, the
/// flag, and extra arguments that make the driver use the size soon.
const DRIVERS: [(&str, &str, &str, &[&str]); 4] = [
    ("snack-perf", env!("CARGO_BIN_EXE_snack-perf"), "--kernel-size", &["--smoke"]),
    ("snack-sweep", env!("CARGO_BIN_EXE_snack-sweep"), "--kernel-size", &["--kernels", "mac"]),
    ("snack-trace", env!("CARGO_BIN_EXE_snack-trace"), "--size", &[]),
    ("snack-chaos", env!("CARGO_BIN_EXE_snack-chaos"), "--size", &[]),
];

#[test]
fn a_zero_kernel_size_exits_2_and_names_the_flag() {
    for (name, path, flag, extra) in DRIVERS {
        let out = Command::new(path)
            .args(extra)
            .args([flag, "0", "--json", "/dev/null"])
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {flag} 0: stderr {stderr}");
        assert!(stderr.contains(flag), "{name} {flag} 0 must name the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {flag} 0 panicked: {stderr}");
    }
}

#[test]
fn a_bad_fault_rate_exits_2_and_names_the_flag() {
    for rate in ["1.5", "x", "-0.1", "NaN"] {
        let out = Command::new(env!("CARGO_BIN_EXE_snack-chaos"))
            .args(["--rates", rate, "--json", "/dev/null"])
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--rates {rate}: stderr {stderr}");
        assert!(stderr.contains("--rates"), "--rates {rate} must name the flag: {stderr}");
        assert!(!stderr.contains("panicked"), "--rates {rate} panicked: {stderr}");
    }
}
