//! The on-the-fly dense-region index (§3.2.2).
//!
//! Dense regions — many tuples packed into a narrow window — are what makes
//! the binary-search algorithms expensive, and the same dense region gets hit
//! by many different user queries. The index trades a one-time crawling
//! cost for zero-cost answers on all future hits, and remembers *which
//! regions* were crawled, not what was found there — the tuples are in the
//! shared [`History`](crate::history::History) like every other tuple:
//!
//! * [`dense1d`] — per-(attribute, direction) intervals with an incremental
//!   crawl frontier (Algorithm 4's oracle).
//!
//! It stays apart from [`CompleteRegions`](crate::history::CompleteRegions):
//! uncapped, and kept by `SharedState::forget_complete_regions`. The §4.4
//! MD box index is not built: on the tie-slab cursor it never saved a query.

pub mod dense1d;
