//! Fixture: a pub query entry point that loops without a deadline (L005)
//! under a reasonless directive (L000), a justified suppression, a
//! compliant sibling and an exempt private helper.

use bp_core::ProvenanceBrowser;

// bp-lint: allow(L005)
pub fn unbounded_scan(browser: &ProvenanceBrowser, limit: u32) -> u32 {
    let mut n = 0;
    for _ in 0..limit {
        n += 1;
    }
    n
}

// bp-lint: allow(L005): fixture demonstrating a justified suppression
pub fn sanctioned_scan(browser: &ProvenanceBrowser, limit: u32) -> u32 {
    let mut n = 0;
    for _ in 0..limit {
        n += 1;
    }
    n
}

pub fn bounded_scan(browser: &ProvenanceBrowser, limit: u32, budget: &Budget) -> u32 {
    let budget = budget.pinned();
    let mut n = 0;
    for _ in 0..limit {
        if budget.expired() {
            break;
        }
        n += 1;
    }
    n
}

fn tally(browser: &ProvenanceBrowser, limit: u32) -> u32 {
    let mut n = 0;
    for _ in 0..limit {
        n += 1;
    }
    n
}
