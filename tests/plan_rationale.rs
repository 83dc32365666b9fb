//! The planner's prose, pinned: what `Plan`'s rationale and the
//! `Unplannable` reason read for a fixed corpus, compared byte for byte
//! with `tests/golden/plan_rationale.txt`.
//!
//! The corpus is every `SiteProfile::catalog(10)` profile, at two database
//! sizes (one that a twenty-page wall drains and one it does not), under
//! 1-, 2- and 3-attribute rankings, each with no selection, with a range
//! predicate that a point-only or filterless site cannot evaluate, and with
//! that range plus a categorical predicate (which an arity-capped site
//! relaxes); then one explicit algorithm choice and one custom strategy,
//! which bypass the planner. Nothing here reads `QRS_TEST_SEED`. A change
//! that *means* to move the prose replaces the file with the document the
//! failure prints between its markers.

use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SearchInterface, SiteProfile, SystemRank};
use query_reranking::service::{
    Algorithm, CostEstimate, PlanContext, RerankService, RerankStrategy, SessionBuilder,
    StrategyIo, StrategyStep,
};
use query_reranking::types::{
    AttrId, CatId, CatPredicate, Direction, Interval, Query, RequestKind, RerankError,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// A strategy the planner knows nothing about: it names itself and prices
/// one page of the server query.
struct Registered;

impl RerankStrategy for Registered {
    fn name(&self) -> &str {
        "registered-scan"
    }

    fn estimate(&self, ctx: &PlanContext) -> CostEstimate {
        CostEstimate::priced(1, &ctx.caps.cost, ctx.server_query, RequestKind::Page)
    }

    fn next_step(&mut self, _io: &mut StrategyIo<'_>) -> Result<StrategyStep, RerankError> {
        Ok(StrategyStep::Exhausted)
    }
}

/// A linear ranking over the first `m` attributes, the second one
/// descending.
fn rank(m: usize) -> Arc<dyn RankFn> {
    let terms = [
        (AttrId(0), Direction::Asc, 0.5),
        (AttrId(1), Direction::Desc, 0.3),
        (AttrId(2), Direction::Asc, 0.2),
    ];
    Arc::new(LinearRank::new(terms[..m].to_vec()))
}

fn service(profile: &SiteProfile, n_estimate: usize) -> RerankService {
    let server = profile.build(uniform(40, 3, 1, 5), SystemRank::pseudo_random(9));
    RerankService::new(Arc::new(server) as Arc<dyn SearchInterface>, n_estimate)
}

/// One corpus line: the case, then the plan's rationale or the refusal.
fn line(out: &mut String, case: &str, builder: SessionBuilder<'_>) {
    let _ = match builder.plan() {
        Ok(plan) => writeln!(out, "{case}\n  plan: {}", plan.rationale()),
        Err(RerankError::Unplannable { reason, .. }) => {
            writeln!(out, "{case}\n  unplannable: {reason}")
        }
        Err(other) => panic!("{case}: planning may only refuse Unplannable, got {other}"),
    };
}

fn corpus() -> String {
    let range = Query::all().and_range(AttrId(0), Interval::open(0.2, 0.9));
    let both = range.clone().and_cat(CatPredicate::eq(CatId(0), 1));
    let sels = [("all", Query::all()), ("range", range), ("range+cat", both)];
    let mut out = String::new();
    for profile in SiteProfile::catalog(10) {
        for n in [150, 2_000] {
            let svc = service(&profile, n);
            for m in 1..=3 {
                for (name, sel) in &sels {
                    let case = format!("{} n={n} m={m} sel={name}", profile.name);
                    line(&mut out, &case, svc.session(sel.clone(), rank(m)));
                }
            }
        }
    }
    let svc = service(&SiteProfile::open_site(10), 2_000);
    let explicit = svc
        .session(Query::all(), rank(2))
        .algorithm(Algorithm::Md(MdOptions::rerank()));
    line(&mut out, "open_site n=2000 m=2 explicit md", explicit);
    let custom = svc
        .session(Query::all(), rank(2))
        .strategy(Box::new(Registered));
    line(&mut out, "open_site n=2000 m=2 custom", custom);
    out
}

#[test]
fn plans_keep_their_recorded_rationale() {
    let fresh = corpus();
    let recorded = include_str!("golden/plan_rationale.txt");
    if fresh != recorded {
        let at = fresh
            .lines()
            .zip(recorded.lines())
            .position(|(a, b)| a != b);
        panic!(
            "the planner no longer explains itself as tests/golden/plan_rationale.txt \
             records (first difference at line {at:?}); if the change means to move \
             the prose, replace the file with the document between the markers:\n\
             -----BEGIN-----\n{fresh}-----END-----"
        );
    }
}
