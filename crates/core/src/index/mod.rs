//! On-the-fly dense-region indexes (§3.2.2 and §4.4).
//!
//! Dense regions — many tuples packed into a narrow window — are what makes
//! the binary-search algorithms expensive, and the same dense region gets hit
//! by many different user queries. Both indexes trade a one-time crawling
//! cost for zero-cost answers on all future hits, and both remember *which
//! regions* were crawled, not what was found there — the tuples are in the
//! shared [`History`](crate::history::History) like every other tuple:
//!
//! * [`dense1d`] — per-(attribute, direction) intervals with an incremental
//!   crawl frontier (Algorithm 4's oracle),
//! * [`densemd`] — fully crawled normalized boxes for the MD oracle
//!   (Algorithm 6 lines 3–12).
//!
//! They stay apart from [`CompleteRegions`](crate::history::CompleteRegions):
//! uncapped, and kept by `SharedState::forget_complete_regions`.

pub mod dense1d;
pub mod densemd;
