//! The 1D on-the-fly dense-region index (Algorithm 4).
//!
//! An indexed interval `⟨Ai, dir, [x, y)⟩` is a *crawl frontier* and nothing
//! else: every tuple whose normalized value lies in `[x, frontier]` is in
//! the shared [`History`](crate::history::History), which is where the
//! certain answer is read from. The [`oracle`] extends the frontier with
//! 1D-BASELINE steps **without the user's selection condition** — the paper's
//! deliberate choice (§3.2.2) that makes one crawl serve every future user
//! query touching the region. Tie slabs are collected exactly, so the
//! frontier invariant survives duplicate attribute values.

use crate::ctx::SharedState;
use crate::one_d::cursor::gather_slab;
use crate::one_d::primitives::{baseline, OneDSpec};
use qrs_server::SearchInterface;
use qrs_types::Endpoint::{Closed, Open};
use qrs_types::{AttrId, Direction, Interval, Query, RerankError, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// One indexed dense region on a (attribute, direction) axis: the normalized
/// range `[x, y)`, of which every value in `[x, frontier]` is fully crawled
/// (`None` = nothing crawled yet, `Some(y)` = the whole range).
#[derive(Debug)]
struct DenseInterval {
    x: f64,
    y: f64,
    frontier: Option<f64>,
}

/// The per-axis index: a list of intervals per (attribute, direction).
#[derive(Debug, Default)]
pub struct Dense1D {
    map: HashMap<(AttrId, Direction), Vec<DenseInterval>>,
}

impl Dense1D {
    /// Number of indexed intervals across all axes.
    pub fn num_intervals(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }
}

/// Algorithm 4: resolve "smallest matching tuple with normalized value in
/// `[x, y)`" through the index, crawling (selection-free) as needed.
/// Returns `Ok(None)` when the range holds no matching tuple. On a server
/// failure the crawl frontier keeps everything confirmed so far, so a retry
/// resumes rather than restarts.
pub fn oracle(
    server: &dyn SearchInterface,
    st: &mut SharedState,
    spec: &OneDSpec,
    x: f64,
    y: f64,
) -> Result<Option<Arc<Tuple>>, RerankError> {
    if x >= y {
        return Ok(None);
    }
    let key = (spec.attr, spec.dir);
    let generic = OneDSpec::new(spec.attr, spec.dir, Query::all());
    // The first inserted interval covering `[x, y)`, else a new one: which
    // frontier a range extends decides what later ranges cost.
    let list = st.dense1d.map.entry(key).or_default();
    let at = match list.iter().position(|d| d.x <= x && y <= d.y) {
        Some(at) => at,
        None => {
            list.push(DenseInterval {
                x,
                y,
                frontier: None,
            });
            list.len() - 1
        }
    };
    let (dx, dy, mut frontier) = (list[at].x, list[at].y, list[at].frontier);
    loop {
        if let Some(f) = frontier {
            // Certain answer: everything in `[x, min(y, f)]` is in history.
            let hi = if f < y { Closed(f) } else { Open(y) };
            let known = Interval { lo: Closed(x), hi };
            let found = st
                .history
                .first_norm_in(spec.attr, spec.dir, known, &spec.sel);
            if found.is_some() || f >= y {
                return Ok(found.cloned()); // `None`: crawled past y, no match
            }
        }
        // Extend the frontier one slab; with nothing crawled yet, start one
        // ULP below x so the boundary itself is included.
        let after = frontier.unwrap_or(dx.next_down());
        let reached = match baseline(server, st, &generic, after, Some(dy))? {
            None => dy,
            Some(t) => {
                let v = spec.nval(&t);
                debug_assert!(v > after && v < dy, "crawl step left ({after}, {dy})");
                // Collect the whole tie slab at v (selection-free) so the
                // frontier invariant holds with duplicates.
                gather_slab(server, st, &generic, v)?;
                v
            }
        };
        // Written through each turn: a failed step keeps what came before.
        frontier = Some(reached);
        st.dense1d.map.get_mut(&key).expect("entered above")[at].frontier = frontier;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::clustered;
    use qrs_server::{SimServer, SystemRank};

    fn setup(k: usize) -> (SimServer, SharedState) {
        let data = clustered(800, 1, 2, 0.004, 21);
        let st = SharedState::new(data.schema(), RerankParams::paper_defaults(800, k));
        // Adversarial system ranking: descending attr for ascending users.
        let server = SimServer::new(data, SystemRank::by_attr_desc(AttrId(0)), k);
        (server, st)
    }

    #[test]
    fn oracle_finds_minimum_in_range_and_reuses_index() {
        let (server, mut st) = setup(5);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        let truth = |x: f64, y: f64| {
            server
                .dataset()
                .tuples()
                .iter()
                .map(|t| t.ord(AttrId(0)))
                .filter(|&v| v >= x && v < y)
                .min_by(f64::total_cmp)
        };
        let t = oracle(&server, &mut st, &spec, 0.0, 0.5).unwrap().unwrap();
        assert_eq!(Some(t.ord(AttrId(0))), truth(0.0, 0.5));
        // A sub-range lookup afterwards may reuse the same interval's crawl.
        let cost = server.queries_issued();
        let t2 = oracle(&server, &mut st, &spec, 0.0, t.ord(AttrId(0)).next_up()).unwrap();
        assert!(t2.is_some());
        assert_eq!(server.queries_issued(), cost, "second lookup was free");
    }

    #[test]
    fn oracle_respects_selection() {
        let (server, mut st) = setup(5);
        let sel = Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 2));
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, sel.clone());
        let got = oracle(&server, &mut st, &spec, 0.0, 1.1).unwrap();
        let truth = server
            .dataset()
            .tuples()
            .iter()
            .filter(|t| sel.matches(t) && t.ord(AttrId(0)) >= 0.0)
            .map(|t| t.ord(AttrId(0)))
            .min_by(f64::total_cmp);
        assert_eq!(got.map(|t| t.ord(AttrId(0))), truth);
    }

    #[test]
    fn oracle_empty_range_is_none() {
        let (server, mut st) = setup(5);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        assert!(oracle(&server, &mut st, &spec, 5.0, 6.0).unwrap().is_none());
        assert!(oracle(&server, &mut st, &spec, 0.5, 0.5).unwrap().is_none());
    }

    /// A descending axis over grid data — duplicate values, several ids per
    /// value — under a categorical selection: every answer is the dataset's
    /// `(normalized value, id)` minimum, and a frontier is paid for once.
    #[test]
    fn descending_axis_over_ties_and_a_selection() {
        use qrs_types::{CatId, CatPredicate, Interval};
        let data = qrs_datagen::synthetic::discrete_grid(400, 2, 12, 31);
        let fresh = || {
            let st = SharedState::new(data.schema(), RerankParams::paper_defaults(400, 5));
            (
                SimServer::new(data.clone(), SystemRank::pseudo_random(2), 5),
                st,
            )
        };
        let some = Query::all().and_cat(CatPredicate::one_of(CatId(0), vec![1, 3]));
        let none = Query::all().and_range(AttrId(1), Interval::closed(50.0, 60.0));
        let [some, none] = [some, none].map(|sel| OneDSpec::new(AttrId(0), Direction::Desc, sel));
        // Asks, checks the answer against the dataset, returns its value.
        let ask = |server: &SimServer, st: &mut SharedState, spec: &OneDSpec, x: f64, y: f64| {
            let got = oracle(server, st, spec, x, y).unwrap();
            let got = got.map(|t| (spec.nval(&t), t.id));
            let hits = data.tuples().iter().filter(|t| spec.sel.matches(t));
            let in_range = hits
                .map(|t| (spec.nval(t), t.id))
                .filter(|&(v, _)| v >= x && v < y);
            let truth = in_range.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(got, truth, "[{x}, {y})");
            got.map(|(v, _)| v)
        };
        // Raw values 0..=11 normalize to -11..=0: [-9.5, -6.5) holds -9, -8, -7.
        let (x, y) = (-9.5, -6.5);
        let (server, mut st) = fresh();
        let v = ask(&server, &mut st, &some, x, y).expect("matches at every grid value");
        let paid = server.queries_issued();
        assert!(paid > 0);
        // Contained and inside the frontier: free.
        assert_eq!(ask(&server, &mut st, &some, x + 0.25, v.next_up()), Some(v));
        assert_eq!(server.queries_issued(), paid);
        // Contained but past the frontier: pays for the extension and no
        // more — stopping at `v`, then crawling on to `y`, costs what
        // crawling `[x, y)` in one go costs.
        ask(&server, &mut st, &some, v.next_up(), y);
        assert!(server.queries_issued() > paid);
        ask(&server, &mut st, &none, x, y);
        let (one_go, mut st2) = fresh();
        ask(&one_go, &mut st2, &none, x, y);
        assert_eq!(server.queries_issued(), one_go.queries_issued());
        assert_eq!(st.dense1d.num_intervals(), 1, "all inside the first range");
        ask(&server, &mut st, &some, y, y + 1.0);
        assert_eq!(st.dense1d.num_intervals(), 2, "not covered: its own entry");
    }
}
