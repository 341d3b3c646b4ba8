//! `browserprov` — command-line interface to the browser-provenance store.
//!
//! See [`commands::USAGE`] or run `browserprov help`.

mod args;
mod commands;
mod serve;
mod signals;

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = args::Args::parse(&raw);
    match commands::run(&parsed) {
        Ok(output) => {
            let newline = if output.ends_with('\n') { "" } else { "\n" };
            let mut stdout = std::io::stdout().lock();
            match write!(stdout, "{output}{newline}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                // The reader stopped early (`browserprov dot ... | head`):
                // it has read what it wanted, so the command ends quietly.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: writing the output failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
