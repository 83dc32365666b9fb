//! Quickstart: stand up a hidden database, wrap it in a reranking service,
//! and query it under a ranking function the database does not support.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use query_reranking::core::MdOptions;
use query_reranking::datagen::autos;
use query_reranking::ranking::LinearRank;
use query_reranking::server::{SimServer, SystemRank};
use query_reranking::service::{Algorithm, RerankService};
use query_reranking::types::{Direction, Query};
use std::sync::Arc;

fn main() {
    // 1. The "hidden" web database: 13k used-car listings, a top-15
    //    interface, and a proprietary ranking we know nothing about.
    let listings = autos(13_169, 42);
    let schema = Arc::clone(listings.schema());
    let server = SimServer::new(listings, SystemRank::pseudo_random(7), 15);

    // 2. The third-party reranking service.
    let service = RerankService::new(Arc::new(server), 13_169);

    // 3. A user preference the site does not offer: cheap, low-mileage,
    //    *recent* cars, weighted — i.e. minimize
    //    0.5·price + 0.3·mileage − 40000·(year - 1993)/…, expressed as a
    //    monotonic linear function with a descending year preference.
    let price = schema.attr_by_name("price").unwrap();
    let mileage = schema.attr_by_name("mileage").unwrap();
    let year = schema.attr_by_name("year").unwrap();
    let rank = Arc::new(LinearRank::new(vec![
        (price, Direction::Asc, 0.5),
        (mileage, Direction::Asc, 0.08),
        (year, Direction::Desc, 900.0),
    ]));

    // 4. Open a session (the builder preflights the algorithm choice and
    //    the server's capabilities), stream the exact top-10, and report
    //    the query bill.
    let mut session = service
        .session(Query::all(), rank)
        .algorithm(Algorithm::Md(MdOptions::rerank()))
        .open()
        .expect("MD-RERANK needs no optional server capability");
    println!("rank | price    | mileage  | year | score");
    let (rows, err) = session.top(10);
    assert!(err.is_none(), "budget is unlimited here: {err:?}");
    for r in rows {
        println!(
            "{:>4} | {:>8.0} | {:>8.0} | {:>4.0} | {:>9.1}",
            r.rank,
            r.tuple.ord(price),
            r.tuple.ord(mileage),
            r.tuple.ord(year),
            r.score,
        );
    }
    println!(
        "\nexact top-10 under a custom ranking cost {} queries to the site \
         (of {} total issued by the service so far)",
        session.queries_spent(),
        service.queries_issued()
    );
    let (hist, d1) = service.knowledge();
    println!("service knowledge: {hist} tuples in history, {d1} 1D dense intervals");
}
