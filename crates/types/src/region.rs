//! Containment index over selection boxes: "does a stored region subsume
//! `q`?" (§3.1.1) answered without walking every region.
//!
//! A region is stored once, as a point: per ordinal attribute the pair
//! `(lo, !hi)` of totally ordered endpoint keys — `total_cmp` bits plus an
//! Unbounded/Closed/Open rank, so `outer.lo <= q.lo && outer.hi >= q.hi` is
//! exactly [`Interval::is_subset_of`]. That turns subsumption into
//! dominance: a region subsumes `q` iff each coordinate of its point is
//! `<=` the same coordinate of `q`'s (a probe's empty interval becomes the
//! largest key, an unconstrained attribute the smallest; categorical
//! predicates are checked on the survivors). Regions sit in insertion
//! order; all but a short newest tail are under a bulk-built k-d hierarchy
//! of per-coordinate minima, rebuilt without the evicted oldest regions
//! whenever the tail outgrows an eighth of it, so a miss prunes subtrees
//! instead of visiting every region.

use crate::interval::{Endpoint, Interval};
use crate::predicate::CatPredicate;
use crate::query::Query;
use crate::AttrId;
use std::cell::RefCell;

thread_local! {
    /// The probe key [`RegionIndex::covering`] fills, one per thread and
    /// kept between lookups, so a lookup allocates nothing once warm.
    static PROBE: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
}

/// Entries per hierarchy leaf.
const LEAF: usize = 16;
/// The newest-first tail is at least this long before a rebuild pays.
const TAIL: usize = 64;

fn bits(v: f64) -> u128 {
    let b = v.to_bits();
    u128::from(if b >> 63 == 1 { !b } else { b | 1 << 63 }) << 2
}

/// `[lo, !hi]` keys of one interval: smaller means wider on both.
fn keys(iv: &Interval) -> [u128; 2] {
    let lo = match iv.lo {
        Endpoint::Unbounded => 0,
        Endpoint::Closed(v) => bits(v) | 1,
        Endpoint::Open(v) => bits(v) | 2,
    };
    let hi = match iv.hi {
        Endpoint::Unbounded => u128::MAX,
        Endpoint::Open(v) => bits(v) | 1,
        Endpoint::Closed(v) => bits(v) | 2,
    };
    [lo, !hi]
}

/// Write the point of `q` over the attributes `row` (all zeros) spans. A
/// `probe`'s empty interval is inside every region's, whatever its
/// endpoints say.
fn fill(row: &mut [u128], q: &Query, probe: bool) {
    let dims = row.len() / 2;
    for r in q.ranges().iter().filter(|r| r.attr.0 < dims) {
        let k = match probe && r.interval.is_empty() {
            true => [u128::MAX; 2],
            false => keys(&r.interval),
        };
        row[2 * r.attr.0..][..2].copy_from_slice(&k);
    }
}

/// The interval whose `[lo, !hi]` keys are `k` (the inverse of [`keys`]).
fn interval(k: &[u128]) -> Interval {
    let value = |k: u128| {
        let b = (k >> 2) as u64;
        f64::from_bits(if b >> 63 == 1 { b & !(1 << 63) } else { !b })
    };
    let lo = match (k[0], k[0] & 3) {
        (0, _) => Endpoint::Unbounded,
        (k, 1) => Endpoint::Closed(value(k)),
        (k, _) => Endpoint::Open(value(k)),
    };
    let hi = match (!k[1], !k[1] & 3) {
        (u128::MAX, _) => Endpoint::Unbounded,
        (k, 1) => Endpoint::Open(value(k)),
        (k, _) => Endpoint::Closed(value(k)),
    };
    Interval { lo, hi }
}

/// A live region found by [`RegionIndex::covering`], read back from its
/// stored point.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a>(&'a [u128]);

impl Region<'_> {
    /// The region's interval on ordinal attribute `attr`
    /// (`Interval::all()` where it has no predicate).
    pub fn interval(&self, attr: AttrId) -> Interval {
        self.0
            .get(2 * attr.0..2 * attr.0 + 2)
            .map_or_else(Interval::all, interval)
    }
}

/// One hierarchy node over `order[lo..hi]`, stored in pre-order; `skip` is
/// the node after its subtree, so a leaf has `skip == self + 1`.
#[derive(Debug)]
struct Node {
    lo: u32,
    hi: u32,
    skip: u32,
}

/// Selection boxes answering [`covers`](Self::covers) — does a live
/// region subsume a query? — and forgetting oldest-first beyond a cap. See
/// the module docs for the layout.
#[derive(Debug)]
pub struct RegionIndex {
    cap: usize,
    /// Ordinal attributes spanned; every point has `2 * dims` coordinates.
    dims: usize,
    /// Slots before `head` are evicted, the rest live, until the next
    /// rebuild drops them.
    head: usize,
    /// Slot `s`'s categorical predicates.
    cats: Vec<Vec<CatPredicate>>,
    /// Slot `s` owns `keys[s * 2 * dims..][..2 * dims]`.
    keys: Vec<u128>,
    /// Slots `..built` are under the hierarchy, the rest are the tail.
    built: usize,
    order: Vec<u32>,
    nodes: Vec<Node>,
    /// Node `n`'s per-coordinate minimum over its slots, laid out as `keys`.
    mins: Vec<u128>,
}

impl Default for RegionIndex {
    fn default() -> Self {
        RegionIndex::new(usize::MAX)
    }
}

impl RegionIndex {
    /// An empty index holding at most `cap` regions (FIFO beyond that).
    pub fn new(cap: usize) -> Self {
        RegionIndex {
            cap: cap.max(1),
            dims: 0,
            head: 0,
            cats: Vec::new(),
            keys: Vec::new(),
            built: 0,
            order: Vec::new(),
            nodes: Vec::new(),
            mins: Vec::new(),
        }
    }

    /// Live regions.
    pub fn len(&self) -> usize {
        self.cats.len() - self.head
    }

    /// True when no region is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything, keeping the cap.
    pub fn clear(&mut self) {
        *self = RegionIndex::new(self.cap);
    }

    /// Store `region`, evicting the oldest live region first when the
    /// index is full.
    pub fn insert(&mut self, region: &Query) {
        if self.len() == self.cap {
            self.head += 1;
        }
        let need = region.ranges().iter().map(|r| r.attr.0 + 1).max();
        if let Some(dims) = need.filter(|&d| d > self.dims) {
            self.widen(dims);
        }
        let row = self.keys.len();
        self.keys.resize(row + 2 * self.dims, 0);
        fill(&mut self.keys[row..], region, false);
        self.cats.push(region.cats().to_vec());
        if self.cats.len() - self.built > (self.built / 8).max(TAIL) {
            self.rebuild();
        }
    }

    /// Is slot `s` live and does it subsume `q`, whose probe key is `p`?
    /// Always inlined: [`covers`](Self::covers) calls it once per
    /// candidate slot of every history lookup, and left to the inliner,
    /// whether it is inlined depends on how the calling crate happens to
    /// be split into codegen units.
    #[inline(always)]
    fn hit(&self, s: usize, p: &[u128], q: &Query) -> bool {
        let w = p.len();
        let inside = self.keys[s * w..][..w].iter().zip(p).all(|(c, p)| c <= p);
        s >= self.head && inside && q.cats_within(&self.cats[s])
    }

    /// Does some live region `r` subsume `q` (`q.is_subsumed_by(r)`)?
    #[inline]
    pub fn covers(&self, q: &Query) -> bool {
        self.covering(q).is_some()
    }

    /// A live region that subsumes `q`, if one does: the first the walk
    /// meets, newest tail first.
    pub fn covering(&self, q: &Query) -> Option<Region<'_>> {
        let w = 2 * self.dims;
        let slot = PROBE.with_borrow_mut(|p| {
            p.clear();
            p.resize(w, 0);
            fill(p, q, true);
            self.walk(p, q)
        });
        slot.map(|s| Region(&self.keys[s * w..][..w]))
    }

    /// [`Self::covering`]'s walk for `q`, whose probe key is `p`: the slot
    /// of the first subsuming region.
    fn walk(&self, p: &[u128], q: &Query) -> Option<usize> {
        let w = p.len();
        let hit = |&s: &usize| self.hit(s, p, q);
        if let Some(s) = (self.built..self.cats.len()).rev().find(hit) {
            return Some(s);
        }
        let mut n = 0;
        while let Some(node) = self.nodes.get(n) {
            if self.mins[n * w..][..w].iter().zip(p).any(|(m, p)| m > p) {
                n = node.skip as usize;
                continue;
            }
            n += 1;
            if node.skip as usize == n {
                let leaf = &self.order[node.lo as usize..node.hi as usize];
                if let Some(s) = leaf.iter().map(|&s| s as usize).find(hit) {
                    return Some(s);
                }
            }
        }
        None
    }

    /// Re-lay every point out over `dims` attributes (new ones unbounded).
    fn widen(&mut self, dims: usize) {
        let (old, new) = (2 * self.dims, 2 * dims);
        let mut keys = Vec::new();
        // A capped index lays its rows out once, at the extent the cap
        // allows: doubling would re-lay them a dozen times per service.
        if let Some(rows) = self.cap.checked_add(self.cap / 8 + TAIL + 1) {
            keys.reserve_exact(rows * new);
            self.cats
                .reserve_exact(rows.saturating_sub(self.cats.len()));
        }
        keys.resize(self.cats.len() * new, 0);
        for s in 0..self.cats.len() {
            keys[s * new..][..old].copy_from_slice(&self.keys[s * old..][..old]);
        }
        (self.keys, self.dims) = (keys, dims);
        self.rebuild();
    }

    /// Drop the evicted slots and put every live one under a fresh
    /// hierarchy.
    fn rebuild(&mut self) {
        self.keys.drain(..self.head * 2 * self.dims);
        self.cats.drain(..self.head);
        let n = self.cats.len();
        (self.head, self.built) = (0, n);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.nodes.clear();
        self.mins.clear();
        self.build(0, n, 0);
    }

    /// Append the subtree over `order[lo..hi]`: halve at the median of one
    /// coordinate (cycling with depth) down to leaves, minima bottom-up.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) {
        let (w, me) = (2 * self.dims, self.nodes.len());
        let (lo32, hi32) = (lo as u32, hi as u32);
        self.nodes.push(Node {
            lo: lo32,
            hi: hi32,
            skip: 0,
        });
        self.mins.resize((me + 1) * w, u128::MAX);
        if hi - lo > LEAF && w > 0 {
            let (mid, keys) = ((lo + hi) / 2, &self.keys);
            self.order[lo..hi]
                .select_nth_unstable_by_key(mid - lo, |&s| keys[s as usize * w + depth % w]);
            self.build(lo, mid, depth + 1);
            let right = self.nodes.len();
            self.build(mid, hi, depth + 1);
            for j in 0..w {
                self.mins[me * w + j] = self.mins[(me + 1) * w + j].min(self.mins[right * w + j]);
            }
        } else {
            for &s in &self.order[lo..hi] {
                for j in 0..w {
                    self.mins[me * w + j] =
                        self.mins[me * w + j].min(self.keys[s as usize * w + j]);
                }
            }
        }
        self.nodes[me].skip = self.nodes.len() as u32;
    }
}
