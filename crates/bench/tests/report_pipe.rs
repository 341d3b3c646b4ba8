//! `report` ends quietly when its reader has gone: CI pipes it into
//! `head -n 5`, which may close the pipe before the report is written.

use std::io::Read as _;
use std::process::{Command, Stdio};

#[test]
fn report_ends_quietly_on_a_closed_pipe() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // The reader is gone before the report writes a byte.
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["e7", "1", "1"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn report");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait on report");
    assert!(status.success(), "report exited {status}: {stderr}");
    assert_eq!(stderr, "", "a closed pipe is not an error");
}
