//! A zero kernel size is a usage error, not a crash: each `snack-*`
//! driver that takes a kernel size exits 2 and names the flag instead of
//! panicking inside the kernel builder.

use std::process::Command;

/// Each driver with a kernel-size flag, the path Cargo built it at, the
/// flag, and extra arguments that make the driver use the size soon.
const DRIVERS: [(&str, &str, &str, &[&str]); 5] = [
    ("snack-perf", env!("CARGO_BIN_EXE_snack-perf"), "--kernel-size", &["--smoke"]),
    ("snack-sweep", env!("CARGO_BIN_EXE_snack-sweep"), "--kernel-size", &["--kernels", "mac"]),
    ("snack-trace", env!("CARGO_BIN_EXE_snack-trace"), "--size", &[]),
    ("snack-chaos", env!("CARGO_BIN_EXE_snack-chaos"), "--size", &[]),
    ("snack-faults", env!("CARGO_BIN_EXE_snack-faults"), "--size", &[]),
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
