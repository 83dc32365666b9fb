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
//!
//! **Signatures.** Every slot also carries one `u64`, a byte per coordinate
//! of the first four ordinal attributes: seven bits quantize the key over
//! the schema's declared `[min, max]` for that attribute (values outside it
//! clamp to the end buckets, so nothing assumes a region or a probe lies
//! inside the domain; an unbounded `lo` is 0, an empty probe side 127, and
//! `!hi` is mirrored), the top bit is a guard, so
//! `((p | H) - c) & H == H` tests `c <= p` on all eight bytes in one
//! subtract. The quantizer is monotone in key order, so a slot whose word
//! fails the test fails the exact test too: the word is only a filter, and
//! a slot it passes still goes through the exact `u128` keys. Later
//! attributes are left to the exact test. A rejected slot costs one word
//! and never reaches its keys.
//!
//! The word filters slots, never nodes: a node prunes on its exact minima
//! over every coordinate. A per-byte minimum of words would prune only on
//! the first four attributes and only to a bucket's width, which on an
//! attribute whose values crowd a corner of its declared range (a flight's
//! delays) is most of the data. So the walk visits the same nodes and
//! slots as with no words at all, and a word can only save a slot's exact
//! test. How many it saves depends on the data: a probe that differs from
//! a region only past the fourth attribute, or within one bucket, passes
//! the word and pays the exact test.
//!
//! **The walk order is load-bearing.** [`RegionIndex::covering`] returns
//! the *first* subsuming region the walk meets — newest tail first, then
//! the hierarchy in pre-order — and callers read that region's intervals
//! (`complete_below`'s bound). The filter only skips slots the exact test
//! would reject, so it never changes which region comes first;
//! `tests/golden/region_walk.txt` pins the answer probe for probe.

use crate::interval::{Endpoint, Interval};
use crate::predicate::{CatPredicate, RangePredicate};
use crate::query::{cats_within, Conjunction, Query};
use crate::schema::Schema;
use crate::value::{from_order_key, order_key};
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
/// Ordinal attributes a signature spans, two bytes each.
const WORD_ATTRS: usize = 4;
/// Every signature byte's guard bit.
const GUARD: u64 = 0x8080_8080_8080_8080;

/// Is every byte of signature `c` `<=` the same byte of `p`? Bytes hold 7
/// bits, so with the guard set each byte of `(p | GUARD) - c` stays
/// positive (no borrow crosses a byte) and keeps its guard iff `c <= p`.
#[inline(always)]
fn fits(c: u64, p: u64) -> bool {
    ((p | GUARD) - c) & GUARD == GUARD
}

/// One attribute's 7-bit buckets over its declared `[min, max]`,
/// non-decreasing in `total_cmp` order whatever the domain.
#[derive(Debug, Clone, Copy)]
struct Quantizer {
    min: f64,
    /// Buckets per unit; 0 for a domain that is empty, reversed, infinite
    /// or NaN, which puts every number in bucket 0.
    scale: f64,
}

impl Quantizer {
    fn new(min: f64, max: f64) -> Self {
        let scale = Some(128.0 / (max - min)).filter(|s| s.is_finite() && *s > 0.0);
        Quantizer {
            min,
            scale: scale.unwrap_or(0.0),
        }
    }

    /// `v`'s bucket: the float cast saturates, so values below the domain
    /// (and `-inf`) land in 0 and values from `max` up in 127; a NaN goes
    /// where `total_cmp` puts it, below or above every number.
    fn bucket(&self, v: f64) -> u64 {
        if v.is_nan() {
            return if v.is_sign_negative() { 0 } else { 127 };
        }
        u64::from((((v - self.min) * self.scale) as u8).min(127))
    }
}

/// `v`'s [`order_key`], with two low bits free for the endpoint's rank.
fn bits(v: f64) -> u128 {
    u128::from(order_key(v)) << 2
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

/// Write the point of the range predicates `ranges` over the attributes
/// `row` (all zeros) spans. A `probe`'s empty interval is inside every
/// region's, whatever its endpoints say.
fn fill(row: &mut [u128], ranges: &[RangePredicate], probe: bool) {
    let dims = row.len() / 2;
    for r in ranges.iter().filter(|r| r.attr.0 < dims) {
        let k = match probe && r.interval.is_empty() {
            true => [u128::MAX; 2],
            false => keys(&r.interval),
        };
        row[2 * r.attr.0..][..2].copy_from_slice(&k);
    }
}

/// The value of a bounded endpoint key (the inverse of [`bits`]).
fn value(k: u128) -> f64 {
    from_order_key((k >> 2) as u64)
}

/// The interval whose `[lo, !hi]` keys are `k` (the inverse of [`keys`]).
fn interval(k: &[u128]) -> Interval {
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
/// stored point. Two are equal when they are the same stored region.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a>(&'a [u128]);

impl PartialEq for Region<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Region<'_> {}

impl Region<'_> {
    /// The region's interval on ordinal attribute `attr`
    /// (`Interval::all()` where it has no predicate).
    pub fn interval(&self, attr: AttrId) -> Interval {
        self.0
            .get(2 * attr.0..2 * attr.0 + 2)
            .map_or_else(Interval::all, interval)
    }
}

/// What a slot holds besides its keys.
#[derive(Debug)]
struct Slot {
    sig: u64,
    cats: Box<[CatPredicate]>,
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
    /// Ordinal attributes the walk spans: the highest any region inserted
    /// since the last `clear` named. A point's first `2 * dims` coordinates
    /// are its key; the rest of its row is unbounded.
    dims: usize,
    /// Coordinates per key row: twice the schema's ordinal attributes, or
    /// more once a region names an attribute beyond them.
    stride: usize,
    /// Slots before `head` are evicted, the rest live, until the next
    /// rebuild drops them.
    head: usize,
    /// Slot `s`'s signature and categorical predicates.
    slots: Vec<Slot>,
    /// Slot `s` owns `keys[s * stride..][..stride]`.
    keys: Vec<u128>,
    /// The signature quantizer of each of the first [`WORD_ATTRS`] ordinal
    /// attributes.
    quant: [Quantizer; WORD_ATTRS],
    /// Slots `..built` are under the hierarchy, the rest are the tail.
    built: usize,
    order: Vec<u32>,
    nodes: Vec<Node>,
    /// Node `n`'s per-coordinate minimum over its slots' first `2 * dims`
    /// coordinates, `2 * dims` a node.
    mins: Vec<u128>,
}

impl RegionIndex {
    /// An empty index over `schema`'s attributes holding at most `cap`
    /// regions (FIFO beyond that). The schema's declared domains only set
    /// the signature buckets: regions and probes outside them, and
    /// attributes it does not declare, are still answered exactly.
    pub fn new(cap: usize, schema: &Schema) -> Self {
        let quant = std::array::from_fn(|a| match a < schema.num_ordinal() {
            true => {
                let attr = schema.ordinal(AttrId(a));
                Quantizer::new(attr.min, attr.max)
            }
            false => Quantizer::new(0.0, 0.0),
        });
        RegionIndex {
            cap: cap.max(1),
            dims: 0,
            stride: 2 * schema.num_ordinal(),
            head: 0,
            slots: Vec::new(),
            keys: Vec::new(),
            quant,
            built: 0,
            order: Vec::new(),
            nodes: Vec::new(),
            mins: Vec::new(),
        }
    }

    /// Live regions.
    pub fn len(&self) -> usize {
        self.slots.len() - self.head
    }

    /// True when no region is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything, keeping the cap and the memory.
    pub fn clear(&mut self) {
        (self.dims, self.head, self.built) = (0, 0, 0);
        self.slots.clear();
        self.keys.clear();
        self.order.clear();
        self.nodes.clear();
        self.mins.clear();
    }

    /// The signature of key row `row` (see the module docs).
    fn signature(&self, row: &[u128]) -> u64 {
        let mut sig = 0;
        for (a, q) in self.quant.iter().enumerate().take(row.len() / 2) {
            let lo = match row[2 * a] {
                0 => 0,
                u128::MAX => 127,
                k => q.bucket(value(k)),
            };
            let not_hi = match row[2 * a + 1] {
                0 => 0,
                u128::MAX => 127,
                k => 127 - q.bucket(value(!k)),
            };
            sig |= (lo | not_hi << 8) << (16 * a);
        }
        sig
    }

    /// Store `region`, evicting the oldest live region first when the
    /// index is full.
    pub fn insert(&mut self, region: &Query) {
        if self.len() == self.cap {
            self.head += 1;
        }
        if self.slots.capacity() == 0 {
            // A capped index lays its rows out once, at the extent the cap
            // allows: doubling would re-lay them a dozen times per service.
            if let Some(rows) = self.cap.checked_add(self.cap / 8 + TAIL + 1) {
                self.slots.reserve_exact(rows);
                self.keys.reserve_exact(rows.saturating_mul(self.stride));
            }
        }
        let need = region.ranges().iter().map(|r| r.attr.0 + 1).max();
        if let Some(dims) = need.filter(|&d| d > self.dims) {
            self.widen(dims);
        }
        let row = self.keys.len();
        self.keys.resize(row + self.stride, 0);
        fill(&mut self.keys[row..], region.ranges(), false);
        self.slots.push(Slot {
            sig: self.signature(&self.keys[row..]),
            cats: region.cats().into(),
        });
        if self.slots.len() - self.built > (self.built / 8).max(TAIL) {
            self.rebuild();
        }
    }

    /// Is slot `s` live and does it subsume a probe whose key is `p` and
    /// whose categorical predicates are `cats`? The exact test, for a slot
    /// whose signature fits.
    /// Always inlined: [`covers`](Self::covers) calls it once per
    /// candidate slot of every history lookup, and left to the inliner,
    /// whether it is inlined depends on how the calling crate happens to
    /// be split into codegen units.
    #[inline(always)]
    fn hit(&self, s: usize, p: &[u128], cats: &[CatPredicate]) -> bool {
        let w = p.len();
        let inside = self.row(s)[..w].iter().zip(p).all(|(c, p)| c <= p);
        s >= self.head && inside && cats_within(cats, &self.slots[s].cats)
    }

    /// Does some live region `r` subsume `q` (`q.is_subsumed_by(r)`)?
    #[inline]
    pub fn covers<'q>(&self, q: impl Into<Conjunction<'q>>) -> bool {
        self.covering(q).is_some()
    }

    /// A live region that subsumes `q` (a [`Query`], or predicates a caller
    /// holds without building one), if one does: the first the walk meets,
    /// newest tail first.
    pub fn covering<'q>(&self, q: impl Into<Conjunction<'q>>) -> Option<Region<'_>> {
        let (q, w) = (q.into(), 2 * self.dims);
        let slot = PROBE.with_borrow_mut(|p| {
            p.clear();
            p.resize(w, 0);
            fill(p, q.ranges(), true);
            self.walk(p, self.signature(p), q.cats())
        });
        slot.map(|s| Region(&self.row(s)[..w]))
    }

    /// Slot `s`'s key row.
    #[inline(always)]
    fn row(&self, s: usize) -> &[u128] {
        &self.keys[s * self.stride..][..self.stride]
    }

    /// [`Self::covering`]'s walk for a probe whose key is `p`, signature
    /// `sig` and categorical predicates `cats`: the slot of the first
    /// subsuming region.
    fn walk(&self, p: &[u128], sig: u64, cats: &[CatPredicate]) -> Option<usize> {
        // The word test is spelled out in each `find`: folded into `hit`,
        // one closure for both, the walk measured 6 % slower end to end.
        let (w, hit) = (p.len(), |s: usize| self.hit(s, p, cats));
        let mut tail = (self.built..self.slots.len()).rev();
        if let Some(s) = tail.find(|&s| fits(self.slots[s].sig, sig) && hit(s)) {
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
                let (lo, hi) = (node.lo as usize, node.hi as usize);
                let mut leaf = self.order[lo..hi].iter().map(|&s| s as usize);
                if let Some(s) = leaf.find(|&s| fits(self.slots[s].sig, sig) && hit(s)) {
                    return Some(s);
                }
            }
        }
        None
    }

    /// Let the walk span `dims` attributes, and rebuild the hierarchy over
    /// them. Rows already hold every attribute of the schema (unbounded
    /// where a region names none); only an attribute beyond the schema
    /// re-lays them, wider.
    fn widen(&mut self, dims: usize) {
        if 2 * dims > self.stride {
            let (old, new) = (self.stride, 2 * dims);
            let mut keys = vec![0; self.slots.len() * new];
            for s in 0..self.slots.len() {
                keys[s * new..][..old].copy_from_slice(self.row(s));
            }
            (self.keys, self.stride) = (keys, new);
        }
        self.dims = dims;
        self.rebuild();
    }

    /// Drop the evicted slots and put every live one under a fresh
    /// hierarchy.
    fn rebuild(&mut self) {
        self.keys.drain(..self.head * self.stride);
        self.slots.drain(..self.head);
        let n = self.slots.len();
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
        self.nodes.push(Node {
            lo: lo as u32,
            hi: hi as u32,
            skip: 0,
        });
        self.mins.resize((me + 1) * w, u128::MAX);
        if hi - lo > LEAF && w > 0 {
            let (mid, keys, stride) = ((lo + hi) / 2, &self.keys, self.stride);
            self.order[lo..hi]
                .select_nth_unstable_by_key(mid - lo, |&s| keys[s as usize * stride + depth % w]);
            self.build(lo, mid, depth + 1);
            let right = self.nodes.len();
            self.build(mid, hi, depth + 1);
            for j in 0..w {
                self.mins[me * w + j] = self.mins[(me + 1) * w + j].min(self.mins[right * w + j]);
            }
        } else {
            for &s in &self.order[lo..hi] {
                let row = &self.keys[s as usize * self.stride..][..w];
                for (m, &k) in self.mins[me * w..][..w].iter_mut().zip(row) {
                    *m = (*m).min(k);
                }
            }
        }
        self.nodes[me].skip = self.nodes.len() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::{fits, GUARD};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The word test is exactly "every byte of `c` is `<=` the same byte
    /// of `p`". The walk tests cannot see a word test that lets a failing
    /// byte through (the exact test still rejects the slot), so this one
    /// pins it byte by byte, on pairs that differ by a step or two.
    #[test]
    fn region_index_word_test_compares_every_byte() {
        let mut rng = StdRng::seed_from_u64(52);
        let byte = |w: u64, i: usize| w >> (8 * i) & 0x7F;
        for _ in 0..100_000 {
            let (mut c, mut p) = (0u64, 0u64);
            for i in 0..8 {
                let pb: u64 = match rng.random_range(0..8u32) {
                    0 => 0,
                    1 => 127,
                    _ => rng.random_range(0..128u64),
                };
                let cb = (pb + rng.random_range(0..4u64)).saturating_sub(2).min(127);
                (c, p) = (c | cb << (8 * i), p | pb << (8 * i));
            }
            assert_eq!(c & GUARD, 0);
            let want = (0..8).all(|i| byte(c, i) <= byte(p, i));
            assert_eq!(fits(c, p), want, "c {c:#018x} p {p:#018x}");
        }
    }
}
