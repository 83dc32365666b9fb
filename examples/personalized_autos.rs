//! The paper's "personalized ranking application" (§1): one stored user
//! preference applied across *multiple* car-dealer databases, none of which
//! support it natively. Each dealer gets its own reranking service; the
//! preference is one shared ranking function.
//!
//! ```text
//! cargo run --release --example personalized_autos
//! ```

use query_reranking::datagen::autos;
use query_reranking::datagen::autos::attr;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SimServer, SystemRank};
use query_reranking::service::{Algorithm, RerankService};
use query_reranking::types::{Direction, Query};
use std::sync::Arc;

fn main() {
    // Two dealers with different inventories and different opaque rankings.
    let dealer_a = RerankService::new(
        Arc::new(SimServer::new(
            autos(8_000, 1),
            SystemRank::pseudo_random(1),
            15,
        )),
        8_000,
    );
    let dealer_b = RerankService::new(
        Arc::new(SimServer::new(
            autos(6_000, 2),
            SystemRank::by_attr_desc(attr::PRICE), // flashy expensive cars first
            15,
        )),
        6_000,
    );

    // The user's 'commuter' preference, stated once and applied to every
    // dealer: low mileage per model year, weighted against price.
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::new(vec![
        (attr::PRICE, Direction::Asc, 1.0),
        (attr::MILEAGE, Direction::Asc, 0.12),
        (attr::YEAR, Direction::Desc, 1_200.0),
    ]));
    for (name, dealer) in [("dealer A", &dealer_a), ("dealer B", &dealer_b)] {
        let mut session = dealer
            .session(Query::all(), Arc::clone(&rank))
            .open()
            .expect("Auto picks an algorithm needing no optional capability");
        let (rows, err) = session.top(5);
        assert!(err.is_none(), "no budget configured: {err:?}");
        println!(
            "\n{name} — top-5 under the shared 'commuter' profile ({} queries):",
            session.queries_spent()
        );
        for r in rows {
            println!(
                "  #{} ${:>6.0}  {:>7.0} mi  year {:.0}",
                r.rank,
                r.tuple.ord(attr::PRICE),
                r.tuple.ord(attr::MILEAGE),
                r.tuple.ord(attr::YEAR),
            );
        }
    }

    // The federated view: one exact, score-merged ranking over both lots.
    let services = [&dealer_a, &dealer_b];
    let mut fed = query_reranking::service::FederatedSession::open(
        &services,
        Query::all(),
        Arc::clone(&rank),
        Algorithm::Auto,
    )
    .expect("every source accepts the Auto algorithm");
    println!("\nfederated top-8 across both dealers:");
    let (hits, err) = fed.top(8);
    assert!(err.is_none(), "no budget configured: {err:?}");
    for f in hits {
        println!(
            "  #{} [dealer {}] ${:>6.0}  {:>7.0} mi  year {:.0}",
            f.hit.rank,
            if f.source == 0 { "A" } else { "B" },
            f.hit.tuple.ord(attr::PRICE),
            f.hit.tuple.ord(attr::MILEAGE),
            f.hit.tuple.ord(attr::YEAR),
        );
    }
    println!(
        "\nSame preference, two sites, exact results on both — neither site\n\
         supports this ranking natively."
    );
}
