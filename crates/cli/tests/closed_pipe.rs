//! `browserprov` ends quietly when its reader has gone: piped into
//! `head`, it may find the pipe closed before it has written its output.

use std::io::Read as _;
use std::process::{Command, Stdio};

#[test]
fn browserprov_ends_quietly_on_a_closed_pipe() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // The reader is gone before the command writes a byte.
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_browserprov"))
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn browserprov");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait on browserprov");
    assert!(status.success(), "browserprov exited {status}: {stderr}");
    assert_eq!(stderr, "", "a closed pipe is not an error");
}
