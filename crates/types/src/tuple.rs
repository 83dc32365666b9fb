//! Tuples: one row of the client-server database.

use crate::schema::{AttrId, CatId};
use std::fmt;

/// Stable identifier of a tuple within its [`crate::Dataset`].
///
/// `u32` keeps hot structures small (see the type-sizes guidance in the Rust
/// perf book); the paper's largest dataset has 457,013 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A database tuple: ordinal values (rankable) + categorical codes (filters).
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Stable identifier (positional for generated datasets).
    pub id: TupleId,
    ord: Box<[f64]>,
    cat: Box<[u32]>,
}

impl Tuple {
    /// A tuple with the given ordinal values and categorical codes.
    pub fn new(id: TupleId, ord: Vec<f64>, cat: Vec<u32>) -> Self {
        Tuple {
            id,
            ord: ord.into_boxed_slice(),
            cat: cat.into_boxed_slice(),
        }
    }

    /// Value of ordinal attribute `a` — the paper's `t[Ai]`.
    #[inline]
    pub fn ord(&self, a: AttrId) -> f64 {
        self.ord[a.0]
    }

    /// Code of categorical attribute `c`.
    #[inline]
    pub fn cat(&self, c: CatId) -> u32 {
        self.cat[c.0]
    }

    /// All ordinal values in attribute order.
    #[inline]
    pub fn ords(&self) -> &[f64] {
        &self.ord
    }

    /// All categorical codes in attribute order.
    #[inline]
    pub fn cats(&self) -> &[u32] {
        &self.cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let tup = Tuple::new(TupleId(7), vec![1.0, 2.0], vec![3]);
        assert_eq!(tup.ord(AttrId(1)), 2.0);
        assert_eq!(tup.cat(CatId(0)), 3);
        assert_eq!(tup.ords(), &[1.0, 2.0]);
    }
}
