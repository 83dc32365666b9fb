//! The brute-force reference every answer is checked against: filter the
//! ground-truth snapshot, score every match, sort by `(score, id)`, keep
//! the first `TOP`. An answer is right only if it names the same tuples
//! with the same score bits in the same order.

use crate::gen::{Request, TOP};
use qrs_types::Dataset;

/// An answer reduced to what is compared: `(tuple id, score bits)` in
/// emission order.
pub type Fingerprint = Vec<(u32, u64)>;

pub fn top(data: &Dataset, req: &Request) -> Fingerprint {
    let rank = req.rank();
    let mut scored: Vec<(f64, u32)> = data
        .tuples()
        .iter()
        .filter(|t| req.sel.matches(t))
        .map(|t| (rank.score(t), t.id.0))
        .collect();
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(TOP);
    scored
        .into_iter()
        .map(|(s, id)| (id, s.to_bits()))
        .collect()
}
