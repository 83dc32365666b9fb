//! Why the "just fetch h·k tuples and rerank locally" shortcut (§1) is not a
//! reranking service: when the site's proprietary ranking disagrees with the
//! user's, paging returns the *wrong* tuples and the error is unknowable
//! without crawling. This example measures its recall against the exact
//! answer produced by MD-RERANK at a fraction of the crawl cost.
//!
//! ```text
//! cargo run --release --example page_down_pitfall
//! ```

use query_reranking::core::baselines::{page_down_rerank, recall_at_h};
use query_reranking::core::{MdCursor, MdOptions, RerankParams, SharedState};
use query_reranking::datagen::synthetic::correlated;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{Capabilities, SearchInterface, SimServer, SystemRank};
use query_reranking::types::{AttrId, Query};
use std::sync::Arc;

fn main() {
    let n = 10_000;
    // Anti-correlated attributes + a system ranking opposed to the user's:
    // the regime where the shortcut fails hardest.
    let data = correlated(n, -0.7, 31);
    let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let truth = data.rank_by(&Query::all(), |t| rank.score(t));

    println!("page-down shortcut vs exact reranking (n={n}, top-10):\n");
    println!(
        "{:<28} {:>8} {:>10} {:>7}",
        "method", "queries", "recall@10", "exact?"
    );
    for pages in [1usize, 3, 10, 30, 100] {
        let server = SimServer::new(data.clone(), sys.clone(), 10)
            .with_capabilities(Capabilities::none().with_paging());
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
        let r = page_down_rerank(&server, &mut st, &Query::all(), Arc::clone(&rank), pages)
            .expect("paging capability enabled above");
        println!(
            "{:<28} {:>8} {:>10.2} {:>7}",
            format!("page-down ({pages} pages)"),
            server.queries_issued(),
            recall_at_h(&r.tuples, &truth, 10),
            r.exact
        );
    }
    let server = SimServer::new(data.clone(), sys, 10);
    let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, 10));
    let mut cur = MdCursor::new(
        Arc::clone(&rank),
        Query::all(),
        MdOptions::rerank(),
        server.schema(),
    );
    let mut got = Vec::new();
    for _ in 0..10 {
        match cur
            .next(&server, &mut st)
            .expect("offline sim server does not fail")
        {
            Some(t) => got.push(t),
            None => break,
        }
    }
    println!(
        "{:<28} {:>8} {:>10.2} {:>7}",
        "MD-RERANK (this paper)",
        server.queries_issued(),
        recall_at_h(&got, &truth, 10),
        true
    );
    println!(
        "\nPaging only reaches recall 1.0 once it has effectively crawled the\n\
         whole result — MD-RERANK certifies the exact top-10 directly."
    );
}
