//! Incremental top-k maintenance under data change.
//!
//! A [`crate::Session`] answers against the snapshot it was opened on; when
//! the hidden database mutates, its materialized prefix goes stale. The
//! obvious repair — re-drive the whole strategy — re-pays the entire query
//! bill for what is usually a one-tuple change. [`MaintainedSession`]
//! instead consumes the server's mutation feed
//! ([`qrs_types::Capability::MutationFeed`]) and **delta-repairs** an exact
//! materialized top-`h`:
//!
//! * a **delete** above the horizon evicts its tuple and pulls one
//!   replacement from the frontier (the live strategy or the local `below`
//!   buffer of previously displaced tuples);
//! * an **insert** is rank-tested locally against the cached ranking
//!   function — no server traffic at all when it lands outside the top-`h`;
//! * an **update** is delete-then-insert of the same id.
//!
//! Exactness rests on a *suppressed-overlay* argument. Every mutated tuple
//! id is suppressed from the live stream and served from the locally held
//! authoritative copy, so any error a cursor strategy's pre-mutation state
//! could make is confined to ids the overlay already owns; untouched tuples
//! score and order identically on both snapshots. Two cases void the
//! argument and force a full re-drive instead: the server compacted its
//! delta log past our watermark ([`qrs_types::MutationLog::gap`] — replay
//! is incomplete), or the strategy is *positional*
//! ([`qrs_core::RerankStrategy::positional`]: TA and page-down page by rank
//! position, which every mutation shifts) and the repair needs live pulls.
//! The hazard is read from the inner session's strategy at each refresh,
//! so it stays right after a re-drive that re-planned. Re-drives open a
//! fresh session — [`crate::SessionBuilder::open`] re-syncs the knowledge
//! plane and the shared state, so the new drive answers against the new
//! snapshot by construction.

use crate::service::{RerankService, SessionSpec};
use crate::session::{RankedTuple, Session};
use qrs_ranking::RankFn;
use qrs_types::value::cmp_f64;
use qrs_types::{MutationKind, Query, RerankError, Tuple, TupleId};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

/// What one [`MaintainedSession::refresh`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshOutcome {
    /// Deltas consumed from the feed.
    pub applied: usize,
    /// Replacement tuples pulled from the live strategy (not the local
    /// `below` buffer) to repair delete evictions.
    pub replacement_pulls: usize,
    /// True when the repair fell back to a full strategy re-drive (log
    /// gap, or a positional strategy needing live pulls).
    pub redrove: bool,
    /// Server queries this refresh spent, delta-repair and re-drive alike.
    pub queries_spent: u64,
}

/// An ordered overlay entry: user score + tuple, compared exactly as
/// [`TiePolicy::Exact`] emits — score ascending by total order, then id.
type Entry = (f64, Arc<Tuple>);

fn entry_cmp(a: &Entry, b: &Entry) -> Ordering {
    cmp_f64(a.0, b.0).then(a.1.id.cmp(&b.1.id))
}

fn sorted_insert(v: &mut Vec<Entry>, e: Entry) {
    let pos = v
        .binary_search_by(|probe| entry_cmp(probe, &e))
        .unwrap_or_else(|p| p);
    v.insert(pos, e);
}

fn remove_id(v: &mut Vec<Entry>, id: TupleId) {
    v.retain(|(_, t)| t.id != id);
}

/// An exact materialized top-`h` kept current across data change. Built by
/// [`crate::SessionBuilder::open_maintained`]; see the module docs for the
/// repair rules and the exactness argument.
pub struct MaintainedSession<'a> {
    svc: &'a RerankService,
    sel: Query,
    rank: Arc<dyn RankFn>,
    /// The settings every inner session (the initial drive and each full
    /// re-drive) is opened with.
    spec: SessionSpec,
    horizon: usize,
    session: Session<'a>,
    /// One-slot lookahead: the next live emission, pulled but not yet
    /// placed (refill must compare it against the `below` head).
    peeked: Option<Entry>,
    live_exhausted: bool,
    /// The materialized top-`h`, sorted by [`entry_cmp`].
    result: Vec<Entry>,
    /// Displaced and locally ranked tuples beyond the current result,
    /// sorted; invariant: every element ≥ the result's maximum.
    below: Vec<Entry>,
    /// Ids mutated since the inner session opened: filtered out of the
    /// live stream, their authoritative copies served from the overlay.
    suppressed: HashSet<TupleId>,
    /// The feed sequence number this materialization is exact as of.
    watermark: u64,
    redrives: u64,
    /// Queries spent by inner sessions already replaced by a re-drive.
    spent_acc: u64,
    /// Cost units spent by inner sessions already replaced by a re-drive.
    cost_acc: u64,
}

impl<'a> MaintainedSession<'a> {
    pub(crate) fn open(
        svc: &'a RerankService,
        sel: Query,
        rank: Arc<dyn RankFn>,
        spec: SessionSpec,
        horizon: usize,
    ) -> Result<Self, RerankError> {
        // Read the watermark *before* the initial drive: a mutation landing
        // mid-drive is then re-applied by the next refresh, and every
        // absorb is idempotent, so nothing is lost to the race.
        let watermark = svc.server().mutation_seq();
        let session = svc
            .session_with(sel.clone(), Arc::clone(&rank), spec.clone())
            .open()?;
        let mut s = MaintainedSession {
            svc,
            sel,
            rank,
            spec,
            horizon,
            session,
            peeked: None,
            live_exhausted: false,
            result: Vec::with_capacity(horizon),
            below: Vec::new(),
            suppressed: HashSet::new(),
            watermark,
            redrives: 0,
            spent_acc: 0,
            cost_acc: 0,
        };
        s.refill()?;
        Ok(s)
    }

    /// Apply one delta to the overlay. Idempotent: re-applying a delta the
    /// snapshot already reflects changes nothing.
    fn absorb(&mut self, kind: &MutationKind) {
        match kind {
            MutationKind::Delete(id) => self.evict(*id),
            MutationKind::Insert(t) | MutationKind::Update(t) => {
                self.evict(t.id);
                if !self.sel.matches(t) {
                    return;
                }
                let entry = (self.rank.score(t), Arc::clone(t));
                match self.result.last() {
                    Some(last) if entry_cmp(&entry, last) == Ordering::Less => {
                        sorted_insert(&mut self.result, entry);
                        if self.result.len() > self.horizon {
                            let displaced = self.result.pop().expect("len > horizon ≥ 1");
                            sorted_insert(&mut self.below, displaced);
                        }
                    }
                    _ => sorted_insert(&mut self.below, entry),
                }
            }
        }
    }

    /// Suppress an id from the live stream and drop any overlay copy.
    fn evict(&mut self, id: TupleId) {
        self.suppressed.insert(id);
        remove_id(&mut self.result, id);
        remove_id(&mut self.below, id);
        if self.peeked.as_ref().is_some_and(|(_, t)| t.id == id) {
            self.peeked = None;
        }
    }

    /// Top up the result to the horizon by merging the `below` buffer with
    /// the live stream (suppressed ids filtered). Returns how many entries
    /// came from the live side.
    fn refill(&mut self) -> Result<usize, RerankError> {
        let mut live_pulls = 0;
        while self.result.len() < self.horizon {
            while self.peeked.is_none() && !self.live_exhausted {
                match self.session.next()? {
                    None => self.live_exhausted = true,
                    Some(rt) if self.suppressed.contains(&rt.tuple.id) => {}
                    Some(rt) => self.peeked = Some((rt.score, rt.tuple)),
                }
            }
            let from_below = match (self.below.first(), &self.peeked) {
                (Some(b), Some(p)) => entry_cmp(b, p) == Ordering::Less,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break, // both dry: result is complete
            };
            let entry = if from_below {
                self.below.remove(0)
            } else {
                live_pulls += 1;
                self.peeked.take().expect("peeked checked above")
            };
            // Append preserves the sort: the entry is the minimum of every
            // remaining candidate, and all of those are ≥ the result's max
            // (the `below` invariant; live emissions arrive score-ordered).
            self.result.push(entry);
        }
        Ok(live_pulls)
    }

    /// Discard the overlay and the inner session and answer from scratch
    /// against the current snapshot.
    fn redrive(&mut self) -> Result<(), RerankError> {
        self.spent_acc += self.session.queries_spent();
        self.cost_acc += self.session.cost_units_spent();
        self.result.clear();
        self.below.clear();
        self.suppressed.clear();
        self.peeked = None;
        self.live_exhausted = false;
        self.watermark = self.svc.server().mutation_seq();
        self.session = self
            .svc
            .session_with(self.sel.clone(), Arc::clone(&self.rank), self.spec.clone())
            .open()?;
        self.redrives += 1;
        self.refill()?;
        Ok(())
    }

    /// Poll the mutation feed and repair the materialized top-`h` to be
    /// exact as of the server's current sequence number. Delta-repairs when
    /// it can; falls back to a full re-drive when it must (see module
    /// docs). Call after the underlying data may have changed; a no-change
    /// poll costs zero server queries.
    pub fn refresh(&mut self) -> Result<RefreshOutcome, RerankError> {
        let out = self.refresh_inner()?;
        // A no-change poll is not a repair; everything else lands on the
        // observability plane, attributed to the current inner session
        // (after a re-drive, that is the replacement session's ordinal).
        if out.applied > 0 || out.redrove || out.replacement_pulls > 0 {
            self.session
                .emit_obs(|| qrs_obs::EventKind::MutationRepair {
                    applied: out.applied as u64,
                    replacement_pulls: out.replacement_pulls as u64,
                    redrove: out.redrove,
                    queries_spent: out.queries_spent,
                });
        }
        Ok(out)
    }

    fn refresh_inner(&mut self) -> Result<RefreshOutcome, RerankError> {
        let log = self.svc.server().mutations_since(self.watermark)?;
        if !log.gap && log.deltas.is_empty() {
            return Ok(RefreshOutcome::default());
        }
        let spent_before = self.queries_spent();
        if log.gap {
            self.redrive()?;
            return Ok(RefreshOutcome {
                applied: 0,
                replacement_pulls: 0,
                redrove: true,
                queries_spent: self.queries_spent() - spent_before,
            });
        }
        let applied = log.deltas.len();
        for m in &log.deltas {
            self.absorb(&m.kind);
        }
        self.watermark = log.max_seq().expect("deltas is non-empty");
        // Positional strategies address tuples by rank position, which
        // every mutation shifts — their untouched emissions can skip or
        // duplicate under data change, so the suppressed-overlay argument
        // does not cover them: when the repair needs live pulls, re-drive
        // instead. Ask the strategy running *now*.
        let redrove =
            self.session.positional() && self.result.len() < self.horizon && !self.live_exhausted;
        let replacement_pulls = if redrove {
            self.redrive()?;
            0
        } else {
            self.refill()?
        };
        Ok(RefreshOutcome {
            applied,
            replacement_pulls,
            redrove,
            queries_spent: self.queries_spent() - spent_before,
        })
    }

    /// The materialized top-`h` (shorter when fewer tuples match), exact
    /// as of [`MaintainedSession::watermark`]. Ranks are 1-based.
    pub fn top(&self) -> Vec<RankedTuple> {
        self.result
            .iter()
            .enumerate()
            .map(|(i, (score, tuple))| RankedTuple {
                rank: i + 1,
                score: *score,
                tuple: Arc::clone(tuple),
            })
            .collect()
    }

    /// The feed sequence number the materialization is exact as of.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The maintenance horizon `h` this session was opened with.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Full re-drives performed so far.
    pub fn redrives(&self) -> u64 {
        self.redrives
    }

    /// Server queries spent across the initial drive, every repair, and
    /// every re-drive.
    pub fn queries_spent(&self) -> u64 {
        self.spent_acc + self.session.queries_spent()
    }

    /// Cost units spent across the initial drive, every repair, and every
    /// re-drive (the server's per-query pricing, not the query count).
    pub fn cost_units_spent(&self) -> u64 {
        self.cost_acc + self.session.cost_units_spent()
    }

    /// Queries the *current* inner session answered from the knowledge
    /// plane instead of paying the server.
    pub fn queries_saved(&self) -> u64 {
        self.session.queries_saved()
    }
}

impl std::fmt::Debug for MaintainedSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintainedSession")
            .field("horizon", &self.horizon)
            .field("materialized", &self.result.len())
            .field("below", &self.below.len())
            .field("suppressed", &self.suppressed.len())
            .field("watermark", &self.watermark)
            .field("redrives", &self.redrives)
            .field("queries_spent", &self.queries_spent())
            .finish()
    }
}
