//! # bp-sim — the browser-session simulator
//!
//! The paper evaluated on a real 79-day Firefox history; this reproduction
//! has no real user, so it substitutes a behavioural simulator (see
//! DESIGN.md's substitution table). The simulator produces the *same
//! interface* real hooks would — a stream of [`bp_core::BrowserEvent`]s —
//! with the statistical structure the experiments depend on:
//!
//! - [`web`] — a synthetic topical web with Zipfian page popularity, a
//!   link graph, and a search engine (the "rosebud" ambiguity of §2.1–2.2
//!   is built into its vocabularies);
//! - [`session`] — a day-structured user model (searches, link chains,
//!   tabs, bookmarks, forms, downloads, redirects, embeds);
//! - [`scenario`] — scripted §2 ground-truth scenarios (rosebud, gardener,
//!   wine-and-tickets, drive-by download);
//! - [`calibrate`] — the 79-day / ~25k-node paper-scale workload (§3, E3).
//!
//! # Example
//!
//! ```
//! use bp_sim::web::{SyntheticWeb, WebConfig};
//! use bp_sim::session::{SessionGenerator, UserProfile};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let web = SyntheticWeb::generate(&WebConfig::default(), &mut rng);
//! let mut generator = SessionGenerator::new(
//!     &web,
//!     UserProfile::generic(),
//!     rand_chacha::ChaCha8Rng::seed_from_u64(8),
//! );
//! let events = generator.generate(2);
//! assert!(!events.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod calibrate;
pub mod scenario;
pub mod session;
pub mod web;
