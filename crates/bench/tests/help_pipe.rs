//! `--help` writes its usage to stdout and exits 0 even when nobody
//! reads stdout any more, as in `snack-sweep --help | head -c 1`.

use std::process::{Command, Stdio};

#[test]
fn help_on_a_closed_pipe_exits_zero_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    // With the read end gone before the child starts, its usage write
    // fails with a broken pipe every time.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_snack-sweep"))
        .arg("--help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("snack-sweep starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
