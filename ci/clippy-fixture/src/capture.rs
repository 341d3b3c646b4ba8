//! Seeds: a raw clock read and an `.unwrap()`, next to a justified
//! suppression, a stale one and one without a reason.

use std::time::Instant;

pub fn capture_latency() -> std::time::Duration {
    let t0 = Instant::now();
    t0.elapsed()
}

pub fn risky(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(
    clippy::unwrap_used,
    reason = "fixture demonstrating a justified suppression"
)]
pub fn sanctioned(v: Option<u32>) -> u32 {
    v.unwrap()
}

// The unwrap this excused is gone, so the expectation itself fails.
#[expect(
    clippy::unwrap_used,
    reason = "fixture demonstrating a stale suppression"
)]
pub fn defaulted(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

// A suppression must say why: an `allow` without a reason is rejected.
#[allow(clippy::unwrap_used)]
pub fn excused(v: Option<u32>) -> u32 {
    v.unwrap()
}
