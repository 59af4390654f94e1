//! The binary against a reader that stops early: `oipa-cli store ls |
//! head -1` must end quietly, not in a panic.

#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

/// The reading end of stdout is closed before the process starts, so its
/// first write fails with a broken pipe every time.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    let dir = std::env::temp_dir().join("oipa-cli-closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    let (writer, reader) = UnixStream::pair().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_oipa-cli"))
        .args(["store", "ls", "--dir"])
        .arg(&dir)
        .stdout(Stdio::from(OwnedFd::from(writer)))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
