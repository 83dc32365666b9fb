//! Seed → inputs. Everything a workload feeds the system under test — the
//! dataset and system-ranking seeds, the request list, the mutation
//! schedule — is a pure function of `(--seed, world index)`, so the same
//! seed reproduces a run's inputs (and therefore its spend ledgers) bit
//! for bit, and a run can draw as many independent worlds as it has passes.

use qrs_edge::{EdgeClient, Json};
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SimServer, SiteProfile, SystemRank};
use qrs_types::{AttrId, CostModel, Direction, Interval, Query, Tuple, TupleId};
use std::sync::Arc;

/// Tuples in every world's hidden database.
pub const N: usize = 2000;
/// Ordinal attributes per tuple.
pub const M: usize = 3;
/// The site's page size `k`.
pub const K: usize = 10;
/// Answers fetched per request (the `h` of top-`h`).
pub const TOP: usize = 25;

/// SplitMix64: the benchmark's own generator, so its inputs cannot move
/// when the repo's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform on `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One user request: a selection and a linear ranking over it.
#[derive(Debug, Clone)]
pub struct Request {
    pub sel: Query,
    pub terms: Vec<(usize, Direction, f64)>,
}

impl Request {
    pub fn rank(&self) -> Arc<dyn RankFn> {
        Arc::new(LinearRank::new(
            self.terms
                .iter()
                .map(|&(a, d, w)| (AttrId(a), d, w))
                .collect(),
        ))
    }

    /// The `/v1/rerank` body element for this request.
    pub fn wire(&self) -> Json {
        EdgeClient::request(&self.sel, &self.terms, TOP, None, None, None)
    }
}

/// One scheduled change to the hidden database.
#[derive(Debug, Clone)]
pub enum Mutation {
    Insert(Tuple),
    Delete(TupleId),
    Update(Tuple),
}

impl Mutation {
    /// Commit the change. A refused mutation is a broken schedule, which
    /// is this program's bug, not a measured failure.
    pub fn apply(&self, server: &SimServer) {
        match self {
            Mutation::Insert(t) => {
                server
                    .insert(t.clone())
                    .expect("scheduled insert id is fresh");
            }
            Mutation::Delete(id) => {
                server.delete(*id).expect("scheduled delete id is live");
            }
            Mutation::Update(t) => {
                server
                    .update(t.clone())
                    .expect("scheduled update id is live");
            }
        }
    }
}

/// The generated inputs of one world.
#[derive(Debug, Clone)]
pub struct World {
    pub data_seed: u64,
    pub sys_seed: u64,
    pub requests: Vec<Request>,
    pub mutations: Vec<Mutation>,
}

impl World {
    /// World `index` of run seed `seed`: `requests` requests in a fixed
    /// stratified mix (every 4th is 1-D, the rest alternate 2 and 3
    /// ranking attributes; 2 in 3 carry one range predicate) and
    /// `mutations` changes rotating insert / delete / update. The strata
    /// are fixed so that only weights, attributes and intervals — not the
    /// mix — vary with the seed.
    pub fn generate(seed: u64, index: u64, requests: usize, mutations: usize) -> World {
        let mut rng = Rng::new(seed, index);
        let data_seed = rng.next_u64();
        let sys_seed = rng.next_u64();
        let requests = (0..requests).map(|i| request(&mut rng, i)).collect();
        let mut live: Vec<u32> = (0..N as u32).collect();
        let mutations = (0..mutations)
            .map(|i| match i % 3 {
                0 => {
                    let id = (N + i) as u32;
                    live.push(id);
                    Mutation::Insert(tuple(&mut rng, id))
                }
                1 => Mutation::Delete(TupleId(live.swap_remove(rng.below(live.len())))),
                _ => {
                    let id = live[rng.below(live.len())];
                    Mutation::Update(tuple(&mut rng, id))
                }
            })
            .collect();
        World {
            data_seed,
            sys_seed,
            requests,
            mutations,
        }
    }

    /// The world's hidden database behind the paper's idealized interface,
    /// metered unevenly (range predicates and page turns cost extra) so the
    /// weighted ledger is not a copy of the query count.
    pub fn build_server(&self) -> SimServer {
        let data = qrs_datagen::synthetic::uniform(N, M, 1, self.data_seed);
        let site = SiteProfile {
            cost: CostModel::flat().with_range_cost(1).with_paged_cost(2),
            ..SiteProfile::open_site(K)
        };
        site.build(data, SystemRank::pseudo_random(self.sys_seed))
    }
}

fn tuple(rng: &mut Rng, id: u32) -> Tuple {
    let ord = (0..M).map(|_| rng.unit()).collect();
    Tuple::new(TupleId(id), ord, vec![rng.below(4) as u32])
}

fn request(rng: &mut Rng, i: usize) -> Request {
    let dims = match i % 4 {
        0 => 1,
        slot => 2 + (i / 4 + slot) % 2,
    };
    let mut attrs: Vec<usize> = (0..M).collect();
    for j in 0..dims {
        let pick = j + rng.below(M - j);
        attrs.swap(j, pick);
    }
    attrs.truncate(dims);
    attrs.sort_unstable();
    let terms = attrs
        .into_iter()
        .map(|a| {
            let dir = if rng.below(2) == 0 {
                Direction::Asc
            } else {
                Direction::Desc
            };
            (a, dir, 0.05 + 0.95 * rng.unit())
        })
        .collect();
    let sel = if i.is_multiple_of(3) {
        Query::all()
    } else {
        let width = 0.3 + 0.5 * rng.unit();
        let lo = (1.0 - width) * rng.unit();
        Query::all().and_range(AttrId(rng.below(M)), Interval::closed(lo, lo + width))
    };
    Request { sel, terms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let render = |seed, index| format!("{:?}", World::generate(seed, index, 48, 9));
        assert_eq!(render(7, 3), render(7, 3));
        assert_ne!(render(7, 3), render(8, 3));
        assert_ne!(render(7, 3), render(7, 4));
    }

    #[test]
    fn request_mix_is_stratified() {
        let w = World::generate(1, 0, 48, 0);
        let dims = |d| w.requests.iter().filter(|r| r.terms.len() == d).count();
        assert_eq!((dims(1), dims(2), dims(3)), (12, 18, 18));
        let filtered = w.requests.iter().filter(|r| !r.sel.ranges().is_empty());
        assert_eq!(filtered.count(), 32);
    }

    #[test]
    fn mutation_schedule_applies_cleanly() {
        let w = World::generate(5, 1, 0, 30);
        let server = w.build_server();
        for m in &w.mutations {
            m.apply(&server);
        }
        assert_eq!(server.dataset().len(), N);
    }
}
