//! The sanctioned raw clock read: a reasoned expectation on the one
//! function, not an exemption for the whole file.

#[expect(
    clippy::disallowed_methods,
    reason = "fixture demonstrating the sanctioned monotonic anchor"
)]
pub fn anchor() -> std::time::Instant {
    std::time::Instant::now()
}
