//! # qrs-datagen
//!
//! Seeded synthetic datasets and query workloads standing in for the paper's
//! data sources. The paper crawled live sites and a public download; this
//! workspace builds offline, so it generates data instead. A substitute
//! serves because what an algorithm pays depends on the shape of the data,
//! not on its provenance: the row count, the ranking attributes and their
//! domain sizes (which fix how often values tie), the attribute
//! distributions, and the correlations that make some rankings expensive.
//! Each generator reproduces those for its source:
//!
//! * [`mod@flights`] — the DOT on-time dataset (§6.1): 457,013 rows, 8 ranking
//!   attributes with the published domain sizes, heavy-tailed delays,
//!   distance↔air-time correlation,
//! * [`mod@diamonds`] — Blue Nile (§6.1): 117,641 rows, published attribute
//!   domains, power-law price↔carat correlation,
//! * [`mod@autos`] — Yahoo! Autos (§6.1): 13,169 rows, anti-correlated
//!   price↔mileage,
//! * [`synthetic`] — uniform / clustered / correlated generators for
//!   ablations (dense-region stress, Theorem-1-style skew),
//! * [`workload`] — the user-preference query workloads of §6.2/§6.3.
//!
//! Everything is deterministic given a seed, so experiments are replayable.

pub mod autos;
pub mod diamonds;
pub mod dist;
pub mod flights;
pub mod synthetic;
pub mod workload;

pub use autos::autos;
pub use diamonds::diamonds;
pub use flights::flights;
pub use workload::{md_workload, one_d_workload, MdUserQuery, OneDUserQuery, WorkloadConfig};
