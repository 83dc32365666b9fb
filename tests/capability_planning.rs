//! Preflight-failure and planning tests for the capability-aware planner:
//! every restricted [`SiteProfile`] either plans to a *working* algorithm
//! (exactness preserved against the dense oracle) or fails fast with
//! [`RerankError::Unplannable`] naming the missing capability — never a
//! panic, never a silent wrong answer, never a query spent on a doomed
//! session.

use query_reranking::core::md::ta::SortedAccess;
use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::exec::Executor;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::OrderedPage;
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SiteProfile, SystemRank};
use query_reranking::service::{Algorithm, BatchRequest, RerankService};
use query_reranking::types::{
    AttrId, Capability, CatId, CatPredicate, Direction, FilterSupport, Interval, MutationLog,
    Query, QueryResponse, RerankError, Schema, ServerError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const N: usize = 300;
const K: usize = 5;
const TOP_H: usize = 8;

fn rank1() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0)]))
}

fn rank2() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]))
}

/// Oracle: the dense top-`h` ids for `sel` under `rank`.
fn oracle(n: usize, seed: u64, sel: &Query, rank: &Arc<dyn RankFn>, h: usize) -> Vec<u32> {
    let data = uniform(n, 2, 1, seed);
    let rank = Arc::clone(rank);
    data.rank_by(sel, move |t| rank.score(t))
        .iter()
        .take(h)
        .map(|t| t.id.0)
        .collect()
}

fn service_for(profile: &SiteProfile, n: usize, seed: u64) -> RerankService {
    let data = uniform(n, 2, 1, seed);
    let server = profile.build(data, SystemRank::pseudo_random(seed ^ 0x33));
    RerankService::new(Arc::new(server) as Arc<dyn SearchInterface>, n)
}

/// The headline property: across the whole profile catalog and a workload
/// mix, `Auto` sessions either stream the oracle answer exactly or refuse
/// at `open` with a typed `Unplannable`.
#[test]
fn every_profile_plans_exactly_or_refuses_typed() {
    let workloads: Vec<(&str, Query, Arc<dyn RankFn>)> = vec![
        ("1d", Query::all(), rank1()),
        ("2d", Query::all(), rank2()),
        (
            "2d_filtered",
            Query::all().and_range(AttrId(0), Interval::open(0.2, 0.9)),
            rank2(),
        ),
    ];
    let mut planned = 0;
    let mut refused = 0;
    for profile in SiteProfile::catalog(K) {
        for (name, sel, rank) in &workloads {
            let svc = service_for(&profile, N, 42);
            match svc.session(sel.clone(), Arc::clone(rank)).open() {
                Ok(mut session) => {
                    let (hits, err) = session.top(TOP_H);
                    assert!(
                        err.is_none(),
                        "{}/{name}: a planned session must complete: {err:?}",
                        profile.name
                    );
                    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
                    let want = oracle(N, 42, sel, rank, TOP_H);
                    assert_eq!(got, want, "{}/{name}: exactness", profile.name);
                    planned += 1;
                }
                Err(RerankError::Unplannable { missing, reason }) => {
                    assert!(
                        !missing.is_empty(),
                        "{}/{name}: a refusal must name capabilities",
                        profile.name
                    );
                    assert!(!reason.is_empty());
                    refused += 1;
                }
                Err(other) => {
                    panic!(
                        "{}/{name}: open may only fail Unplannable, got {other}",
                        profile.name
                    )
                }
            };
        }
    }
    assert!(planned > 0, "some profile must plan");
    assert!(refused > 0, "some profile must refuse (deep storefront)");
}

/// A dropdown-only classifieds site: the cursors cannot binary-search, but
/// unlimited paging makes strict page-down an exact fallback.
#[test]
fn classifieds_point_only_falls_back_to_exact_page_down() {
    let profile = SiteProfile::classifieds(K);
    let svc = service_for(&profile, N, 7);
    let builder = svc.session(Query::all(), rank2());
    let plan = builder.plan().expect("classifieds must plan");
    assert!(
        matches!(plan.algorithm, Algorithm::PageDown { .. }),
        "expected page-down, planned {:?}",
        plan.algorithm
    );
    assert!(plan.rationale().contains("rejected md-rerank"));
    let mut session = builder.open().unwrap();
    let (hits, err) = session.top(TOP_H);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
    assert_eq!(got, oracle(N, 7, &Query::all(), &rank2(), TOP_H));
    // Paging the whole inventory costs n/k queries, charged to the session.
    assert_eq!(session.queries_spent(), (N / K) as u64);
}

/// A deep storefront: the 20-page wall cannot drain the inventory, so the
/// planner refuses up front and names the missing depth.
#[test]
fn storefront_deep_inventory_fails_fast_naming_page_depth() {
    let profile = SiteProfile::storefront(K);
    let svc = service_for(&profile, N, 11);
    let err = svc.session(Query::all(), rank2()).open().unwrap_err();
    match err {
        RerankError::Unplannable { missing, reason } => {
            let depth_needed = N.div_ceil(K);
            assert!(
                missing.contains(&Capability::PageDepth(depth_needed)),
                "must name the page depth that would drain the inventory: {missing:?}"
            );
            assert!(
                missing.contains(&Capability::RangeFilter(AttrId(0))),
                "must name the filter the cursors lack: {missing:?}"
            );
            assert!(reason.contains("page-down"));
        }
        other => panic!("expected Unplannable, got {other}"),
    }
    // Fail-fast means fail-free: no query was spent on the doomed session.
    assert_eq!(svc.queries_issued(), 0);
    // A shallow inventory fits behind the same wall. Both TA over the
    // public ORDER BY and a full page-down drain are feasible now — and
    // the storefront's cost model (ordered pages at 3 units, plain page
    // turns at 1) makes the drain the cheaper plan, so the cost ranking
    // picks it and reports TA as the runner-up.
    let shallow_n = 80;
    let svc = service_for(&profile, shallow_n, 11);
    let builder = svc.session(Query::all(), rank2());
    let plan = builder.plan().unwrap();
    assert!(matches!(plan.algorithm, Algorithm::PageDown { .. }));
    let names: Vec<&str> = plan.candidates.iter().map(|c| c.name.as_ref()).collect();
    assert_eq!(names, vec!["page-down", "ta-order-by"]);
    assert!(plan.candidates[0].estimate.cost_units <= plan.candidates[1].estimate.cost_units);
    let mut session = builder.open().unwrap();
    let (hits, err) = session.top(TOP_H);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
    assert_eq!(got, oracle(shallow_n, 11, &Query::all(), &rank2(), TOP_H));
}

/// A flight site's 3-predicate arity cap: a selection that would push a
/// query past the cap gets its optional predicate relaxed server-side and
/// re-applied client-side — exactness against the *full* selection holds.
#[test]
fn flight_site_arity_cap_relaxes_extra_predicates_client_side() {
    let profile = SiteProfile::flight_site(3);
    // Two categorical attributes on top of the two ranking attributes the
    // MD cursor needs: one cat fits the 3-predicate cap, two do not.
    let data = uniform(N, 2, 2, 13);
    let truth_data = uniform(N, 2, 2, 13);
    let server = profile.build(data, SystemRank::pseudo_random(13 ^ 0x33));
    let svc = RerankService::new(Arc::new(server) as Arc<dyn SearchInterface>, N);

    let sel = Query::all().and_cat(CatPredicate::one_of(CatId(0), vec![0, 1]));
    let plan = svc.session(sel.clone(), rank2()).plan().unwrap();
    assert!(matches!(plan.algorithm, Algorithm::Md(_)));
    // 2 cursor attributes + 1 cat = 3 fits the cap: nothing relaxed...
    assert!(plan.residual.is_none());

    // ...a predicate on the second categorical attribute does not; the
    // planner must keep the cursor's attributes and relax a cat, and a
    // range on an already-constrained attribute costs nothing (it merges).
    let wide = sel
        .and_range(AttrId(0), Interval::open(0.1, 0.95))
        .and_cat(CatPredicate::one_of(CatId(1), vec![0, 1, 2]));
    let builder = svc.session(wide.clone(), rank2());
    let plan = builder.plan().unwrap();
    let residual = plan.residual.clone().expect("one cat must be relaxed");
    assert_eq!(residual.cats().len(), 1);
    assert_eq!(plan.server_query.cats().len(), 1);
    assert_eq!(plan.server_query.ranges().len(), 1);

    let mut session = builder.open().unwrap();
    let (hits, err) = session.top(TOP_H);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
    let rank = rank2();
    let want: Vec<u32> = truth_data
        .rank_by(&wide, move |t| rank.score(t))
        .iter()
        .take(TOP_H)
        .map(|t| t.id.0)
        .collect();
    assert_eq!(
        got, want,
        "client-side residual filtering must preserve exactness vs the full selection"
    );
}

/// A page-down drain is budget-gated page by page: a cap far below the
/// drain cost trips after ~cap pages (not after the whole drain), and a
/// budget-window reset resumes the drain where it stopped — pages already
/// fetched are never re-paid.
#[test]
fn page_down_drain_respects_budgets_and_resumes() {
    let profile = SiteProfile::classifieds(K); // drain needs N/K = 60 pages
    let svc = service_for(&profile, N, 31);
    let mut session = svc.session(Query::all(), rank2()).open().unwrap();
    assert!(matches!(
        svc.session(Query::all(), rank2()).plan().unwrap().algorithm,
        Algorithm::PageDown { .. }
    ));
    // Per-session cap of 20: the drain must stop near 20 pages, not run
    // all 60 before the gate fires.
    let svc2 = service_for(&profile, N, 31);
    let mut capped = svc2
        .session(Query::all(), rank2())
        .budget(20)
        .open()
        .unwrap();
    let (hits, err) = capped.top(TOP_H);
    assert!(
        hits.is_empty(),
        "nothing can emit before the drain finishes"
    );
    match err {
        Some(RerankError::BudgetExhausted { spent, limit: 20 }) => {
            assert_eq!(
                spent, 20,
                "the gate fires between pages, not after the drain"
            )
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // The uncapped session streams the oracle answer for the same cost.
    let (hits, err) = session.top(TOP_H);
    assert!(err.is_none(), "{err:?}");
    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
    assert_eq!(got, oracle(N, 31, &Query::all(), &rank2(), TOP_H));
    assert_eq!(session.queries_spent(), (N / K) as u64);

    // Service-wide budget: trip mid-drain, reset the window, resume — the
    // total cost is still exactly one drain.
    let data = uniform(N, 2, 1, 37);
    let server = profile.build(data, SystemRank::pseudo_random(37 ^ 0x33));
    // A 40-query window: the 60-page drain trips once, and the remaining
    // 20 pages fit in the next window.
    let svc = RerankService::new(Arc::new(server) as Arc<dyn SearchInterface>, N).with_budget(40);
    let mut s = svc.session(Query::all(), rank2()).open().unwrap();
    let (hits, err) = s.top(TOP_H);
    assert!(hits.is_empty());
    assert!(matches!(err, Some(RerankError::BudgetExhausted { .. })));
    svc.budget().reset(svc.queries_issued()); // a new accounting window
    let (hits, err) = s.top(TOP_H);
    assert!(
        err.is_none(),
        "the drain must resume after the reset: {err:?}"
    );
    assert_eq!(hits.len(), TOP_H);
    assert_eq!(
        svc.queries_issued(),
        (N / K) as u64,
        "pages fetched before the trip are never re-paid"
    );
}

/// Relaxed plans still bill honestly: the residual filter never drops a
/// paid-for query from the session ledger.
#[test]
fn relaxed_sessions_keep_exact_query_attribution() {
    let profile = SiteProfile::classifieds(K);
    let sel = Query::all().and_range(AttrId(0), Interval::open(0.3, 0.8));
    let svc = service_for(&profile, N, 17);
    let mut session = svc.session(sel.clone(), rank2()).open().unwrap();
    let (hits, err) = session.top(TOP_H);
    assert!(err.is_none(), "{err:?}");
    assert_eq!(
        session.queries_spent(),
        svc.queries_issued(),
        "every charged query belongs to the session"
    );
    let got: Vec<u32> = hits.iter().map(|h| h.tuple.id.0).collect();
    assert_eq!(got, oracle(N, 17, &sel, &rank2(), TOP_H));
}

/// Explicit algorithm choices skip the planner but still preflight: a
/// page-down session against a non-paging site refuses at `open`.
#[test]
fn explicit_page_down_preflights_paging() {
    let data = uniform(N, 2, 1, 19);
    let server = SimServer::new(data, SystemRank::pseudo_random(19), K); // no paging
    let svc = RerankService::new(Arc::new(server), N);
    let err = svc
        .session(Query::all(), rank2())
        .algorithm(Algorithm::PageDown { max_pages: 1_000 })
        .open()
        .unwrap_err();
    assert_eq!(err, RerankError::UnsupportedCapability(Capability::Paging));
    assert_eq!(svc.queries_issued(), 0);
}

/// An explicitly chosen page-down whose depth cap cannot drain the result
/// surfaces the §5-strict typed error instead of a silently truncated
/// ranking — the session keeps its partial (empty) batch contract.
#[test]
fn explicit_page_down_with_shallow_cap_errors_typed_not_wrong() {
    let data = uniform(N, 2, 1, 23);
    let server = SimServer::new(data, SystemRank::pseudo_random(23), K)
        .with_capabilities(Capabilities::none().with_paging());
    let svc = RerankService::new(Arc::new(server), N);
    let mut session = svc
        .session(Query::all(), rank2())
        .algorithm(Algorithm::PageDown { max_pages: 3 })
        .open()
        .expect("paging exists, so the explicit choice opens");
    let (hits, err) = session.top(TOP_H);
    assert!(hits.is_empty());
    assert_eq!(
        err,
        Some(RerankError::UnsupportedCapability(Capability::PageDepth(4)))
    );
}

/// Rankings that read an ordinal attribute the site's schema does not have
/// (`AttrId(5)` over two): alone, and beside one it does have.
fn out_of_schema_ranks() -> Vec<Arc<dyn RankFn>> {
    vec![
        Arc::new(LinearRank::asc(vec![(AttrId(5), 1.0)])),
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(5), 1.0)])),
    ]
}

fn out_of_schema(e: &RerankError) -> bool {
    matches!(e, RerankError::Server(ServerError::InvalidQuery { .. }))
}

fn small_site() -> RerankService {
    let server = SimServer::new(uniform(200, 2, 1, 7), SystemRank::pseudo_random(7), K);
    RerankService::new(Arc::new(server), 200)
}

/// A ranking attribute outside the schema is a typed refusal at `open`,
/// under the planner and under an explicit MD choice alike — never an
/// index panic inside the cursor — and nothing reaches the site.
#[test]
fn open_refuses_ranking_attributes_outside_the_schema_typed() {
    for rank in out_of_schema_ranks() {
        for algo in [Algorithm::Auto, Algorithm::Md(MdOptions::rerank())] {
            let svc = small_site();
            let err = svc
                .session(Query::all(), Arc::clone(&rank))
                .algorithm(algo)
                .open()
                .unwrap_err();
            assert!(out_of_schema(&err), "{algo:?}: {err}");
            assert_eq!(svc.queries_issued(), 0, "{algo:?}: nothing sent");
        }
    }
}

/// The same request through `serve_batch` comes back as the outcome's
/// error, with no hits and nothing charged.
#[test]
fn serve_batch_reports_an_out_of_schema_ranking_as_the_outcome_error() {
    let svc = small_site();
    let reqs = out_of_schema_ranks()
        .into_iter()
        .map(|rank| BatchRequest::new(Query::all(), rank, TOP_H))
        .collect();
    for o in svc.serve_batch(&Executor::pool(1), reqs) {
        assert!(o.hits.is_empty());
        assert!(o.error.as_ref().is_some_and(out_of_schema), "{:?}", o.error);
        assert_eq!(o.stats.queries_spent, 0);
    }
    assert_eq!(svc.queries_issued(), 0);
}

/// The planner consumes a *decorated* server's capabilities transparently:
/// restrictions advertised through `Capabilities` drive planning the same
/// way whether set directly or via a profile.
#[test]
fn hand_rolled_restrictions_match_profile_behavior() {
    let data = uniform(N, 2, 1, 29);
    let server = SimServer::new(data, SystemRank::pseudo_random(29), K).with_capabilities(
        Capabilities::none()
            .with_paging()
            .with_filter(AttrId(0), FilterSupport::Point)
            .with_filter(AttrId(1), FilterSupport::Point),
    );
    let caps = server.capabilities();
    assert_eq!(caps.filter_support(AttrId(0)), FilterSupport::Point);
    let svc = RerankService::new(Arc::new(server), N);
    let plan = svc.session(Query::all(), rank2()).plan().unwrap();
    assert!(matches!(plan.algorithm, Algorithm::PageDown { .. }));
    // Capabilities::require surfaces the same typed refusal the planner saw.
    assert_eq!(
        caps.require(Capability::RangeFilter(AttrId(0)))
            .unwrap_err(),
        query_reranking::types::ServerError::Unsupported(Capability::RangeFilter(AttrId(0)))
    );
}

/// A site that counts how often its site model is read.
struct CountsCapabilities {
    inner: SimServer,
    reads: AtomicUsize,
}

impl SearchInterface for CountsCapabilities {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn capabilities(&self) -> Capabilities {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.capabilities()
    }
    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        self.inner.query(q)
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }
    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        self.inner.query_page(q, page)
    }
    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        self.inner.query_ordered(q, attr, dir, page)
    }
    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }
    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.inner.mutations_since(since)
    }
}

/// A service reads its site's model once, when it is built: planning,
/// opening (`Auto` or an explicit choice the preflights check against the
/// model), driving a TA cursor that negotiates its sorted access, and
/// opening a maintained session all read that copy.
#[test]
fn a_service_reads_the_site_model_once() {
    let data = uniform(N, 2, 1, 41);
    let caps = Capabilities::none()
        .with_paging()
        .with_order_by(vec![AttrId(0), AttrId(1)]);
    let site = Arc::new(CountsCapabilities {
        inner: SimServer::new(data, SystemRank::pseudo_random(41), K).with_capabilities(caps),
        reads: AtomicUsize::new(0),
    });
    let svc = RerankService::new(Arc::clone(&site) as Arc<dyn SearchInterface>, N);
    let sel = Query::all().and_range(AttrId(0), Interval::open(0.1, 0.9));
    let session = || svc.session(sel.clone(), rank2());
    for _ in 0..2 {
        let plan = session().plan().expect("the open site plans");
        let mut auto = session().open().expect("Auto opens");
        assert_eq!(auto.strategy_name(), plan.candidates[0].name);
        assert_eq!(auto.try_top(TOP_H).unwrap().len(), TOP_H);
        for algorithm in [
            Algorithm::Ta(SortedAccess::PublicOrderBy),
            Algorithm::PageDown {
                max_pages: usize::MAX,
            },
        ] {
            let builder = || session().algorithm(algorithm);
            assert!(builder().plan().is_ok(), "{algorithm:?}");
            let mut explicit = builder().open().expect("the site sorts and pages");
            let got: Vec<u32> = (explicit.try_top(TOP_H).unwrap().iter())
                .map(|h| h.tuple.id.0)
                .collect();
            assert_eq!(got, oracle(N, 41, &sel, &rank2(), TOP_H), "{algorithm:?}");
        }
        let maintained = session()
            .open_maintained(TOP_H)
            .expect("the site has a feed");
        assert_eq!(maintained.top().len(), TOP_H);
    }
    assert_eq!(site.reads.load(Ordering::Relaxed), 1);
}
