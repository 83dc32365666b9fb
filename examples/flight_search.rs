//! The paper's motivating 1D scenario (§1/§3): flight search sites let you
//! *filter* on layover-style attributes but not *rank* by them. Here a user
//! wants flights ordered by taxi-out time (tarmac agony), which the site's
//! interface cannot sort by — the reranking service does it with a handful
//! of queries, and we compare the two §3 algorithms' bills.
//!
//! ```text
//! cargo run --release --example flight_search
//! ```

use query_reranking::core::{OneDCursor, OneDSpec, OneDStrategy, RerankParams, SharedState};
use query_reranking::datagen::flights;
use query_reranking::datagen::flights::attr;
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::types::{CatPredicate, Direction, Interval, Query};

fn main() {
    let n = 60_000;
    let data = flights(n, 7);
    // The site ranks by its own blend (SR1 from the paper's experiments).
    let system = SystemRank::linear("SR1", vec![(attr::AIR_TIME, 0.3), (attr::TAXI_IN, 1.0)]);
    let k = 10;

    // User query: one specific carrier, mid-range distance; rank by
    // ascending taxi-out — unsupported by the site.
    let sel = Query::all()
        .and_cat(CatPredicate::eq(
            query_reranking::datagen::flights::cat::CARRIER,
            2,
        ))
        .and_range(attr::DISTANCE, Interval::closed(200.0, 1_500.0));

    println!("top-5 flights by taxi-out (exact), per algorithm:\n");
    for strategy in OneDStrategy::ALL {
        let server = SimServer::new(data.clone(), system.clone(), k);
        let mut st = SharedState::new(data.schema(), RerankParams::paper_defaults(n, k));
        let mut cur = OneDCursor::new(
            OneDSpec::new(attr::TAXI_OUT, Direction::Asc, sel.clone()),
            strategy,
        );
        let mut rows = Vec::new();
        for _ in 0..5 {
            match cur
                .next(&server, &mut st)
                .expect("offline sim server does not fail")
            {
                Some(t) => rows.push((t.ord(attr::TAXI_OUT), t.ord(attr::DISTANCE))),
                None => break,
            }
        }
        println!(
            "{:<12} cost = {:>3} queries",
            strategy.label(),
            server.queries_issued()
        );
        for (i, (taxi, dist)) in rows.iter().enumerate() {
            println!(
                "   #{} taxi_out = {taxi:>5.1} min  distance = {dist:>5.0} mi",
                i + 1
            );
        }
        println!();
    }
    println!(
        "Both produce identical rankings; they differ only in how many\n\
         queries they spend against the site's top-{k} interface."
    );
}
