//! Fixture: seeded violations of the invariants clippy enforces in the
//! library crates, with the same attribute lines as theirs. clippy reads
//! the workspace's root `clippy.toml` for the raw-clock ban.

// Library code returns errors or degrades instead of aborting.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod capture;
pub mod clock;
pub mod factorize;
pub mod noisy;
pub mod varint;
