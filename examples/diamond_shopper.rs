//! The Blue Nile scenario (§1, §6): the catalog ranks by *descending price
//! per carat*; a shopper wants the opposite — most carat per dollar — plus a
//! proportions-based ranking ("summation of depth and table percent") the
//! site cannot express at all. MD-RERANK answers both exactly; TA over
//! 1D-RERANK is the comparator. A query budget mimics API rate limits.
//!
//! ```text
//! cargo run --release --example diamond_shopper
//! ```

use query_reranking::core::md::ta::SortedAccess;
use query_reranking::core::MdOptions;
use query_reranking::datagen::diamonds;
use query_reranking::datagen::diamonds::attr;
use query_reranking::ranking::{LinearRank, RankFn, RatioRank};
use query_reranking::server::{SimServer, SystemRank};
use query_reranking::service::{Algorithm, RerankService};
use query_reranking::types::{Interval, Query};
use std::sync::Arc;

fn main() {
    let catalog = diamonds(117_641, 9);
    let server = SimServer::new(
        catalog,
        SystemRank::ratio_desc(attr::PRICE, attr::CARAT),
        30,
    );
    let service = RerankService::new(Arc::new(server), 117_641).with_budget(5_000);

    // Shopper filter: around one carat, sane prices.
    let sel = Query::all()
        .and_range(attr::CARAT, Interval::closed(0.9, 1.6))
        .and_range(attr::PRICE, Interval::closed(1_000.0, 20_000.0));

    // Preference 1: maximize carat per dollar (minimize price per carat) —
    // the exact opposite of the site's ordering.
    let value_rank: Arc<dyn RankFn> = Arc::new(RatioRank::minimize(attr::PRICE, attr::CARAT));
    // Preference 2: the paper's "depth + table percent" sum.
    let proportions: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![
        (attr::DEPTH, 1.0),
        (attr::TABLE, 1.0),
    ]));

    for (label, rank) in [
        ("best value (min price/carat)", Arc::clone(&value_rank)),
        ("best proportions (min depth+table)", proportions),
    ] {
        for (algo_label, algo) in [
            ("MD-RERANK", Algorithm::Md(MdOptions::rerank())),
            ("TA over 1D-RERANK", Algorithm::Ta(SortedAccess::OneD)),
        ] {
            let mut s = service
                .session(sel.clone(), Arc::clone(&rank))
                .algorithm(algo)
                .open()
                .expect("both algorithms run on a bare top-k interface");
            // `top` keeps the tuples fetched before a budget trip: the
            // shopper sees whatever the rate limit allowed, plus the error.
            let (rows, err) = s.top(5);
            println!("\n{label} via {algo_label} — {} queries", s.queries_spent());
            for r in rows {
                println!(
                    "  #{} carat {:.2}  price ${:>7.0}  $/ct {:>6.0}  depth {:.3} table {:.3}",
                    r.rank,
                    r.tuple.ord(attr::CARAT),
                    r.tuple.ord(attr::PRICE),
                    r.tuple.ord(attr::PRICE) / r.tuple.ord(attr::CARAT),
                    r.tuple.ord(attr::DEPTH),
                    r.tuple.ord(attr::TABLE),
                );
            }
            if let Some(e) = err {
                println!("  … stopped early by the budget: {e}");
            }
        }
    }
    println!(
        "\ntotal spend against the site: {} queries (budget 5000)",
        service.queries_issued()
    );
}
