//! Database schemas: ordinal (rankable) and categorical (filter-only)
//! attributes.
//!
//! Matches §2.1 of the paper: `m` ordinal attributes `A1..Am` with finite
//! value domains, plus categorical attributes `B1..Bm'` that appear in
//! selection conditions but never in ranking functions.

use std::fmt;

/// Index of an ordinal attribute within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub usize);

/// Index of a categorical attribute within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CatId(pub usize);

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0 + 1)
    }
}

impl fmt::Display for CatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0 + 1)
    }
}

/// An ordinal (rankable, range-searchable) attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdinalAttr {
    /// Human-readable attribute name (unique within a schema).
    pub name: String,
    /// Smallest domain value `v0`.
    pub min: f64,
    /// Largest domain value `v∞`.
    pub max: f64,
    /// `true` if the search interface only accepts point predicates
    /// (`Ai = v`) on this attribute rather than ranges (§5 of the paper).
    pub point_only: bool,
    /// Explicit value domain, required for `point_only` attributes (the only
    /// way to enumerate them through the interface). Sorted ascending.
    pub values: Option<Vec<f64>>,
}

impl OrdinalAttr {
    /// A range-searchable attribute with the given domain.
    pub fn new(name: impl Into<String>, min: f64, max: f64) -> Self {
        OrdinalAttr {
            name: name.into(),
            min,
            max,
            point_only: false,
            values: None,
        }
    }

    /// A point-predicate-only attribute with an explicit value list (§5).
    ///
    /// # Panics
    /// If `values` is empty or not strictly ascending
    /// ([`OrdinalAttr::check`]).
    pub fn point_only(name: impl Into<String>, values: Vec<f64>) -> Self {
        let attr = OrdinalAttr {
            name: name.into(),
            min: values.first().copied().unwrap_or(f64::NAN),
            max: values.last().copied().unwrap_or(f64::NAN),
            point_only: true,
            values: Some(values),
        };
        attr.check().unwrap_or_else(|e| panic!("{e}"));
        attr
    }

    /// Whether the interface can reach every value of this attribute. A
    /// point-only attribute is reachable only by walking its value list
    /// (the 1D cursors and the crawler do), so it needs a non-empty,
    /// strictly ascending one; a range attribute's list is advisory.
    pub fn check(&self) -> Result<(), String> {
        let walkable = |v: &Vec<f64>| !v.is_empty() && v.windows(2).all(|w| w[0] < w[1]);
        if self.point_only && !self.values.as_ref().is_some_and(walkable) {
            return Err(format!(
                "point-only attribute '{}' needs a non-empty, strictly ascending value list",
                self.name
            ));
        }
        Ok(())
    }

    /// Domain span `|V(Ai)| = max - min`.
    #[inline]
    pub fn domain_width(&self) -> f64 {
        self.max - self.min
    }
}

/// A categorical attribute, usable only in equality/membership filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatAttr {
    /// Human-readable attribute name (unique within a schema).
    pub name: String,
    /// Number of distinct values; values are encoded as `0..cardinality`.
    pub cardinality: u32,
}

impl CatAttr {
    /// A categorical attribute with `cardinality` distinct codes.
    pub fn new(name: impl Into<String>, cardinality: u32) -> Self {
        CatAttr {
            name: name.into(),
            cardinality,
        }
    }
}

/// Schema of a client-server database.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    ordinal: Vec<OrdinalAttr>,
    categorical: Vec<CatAttr>,
}

impl Schema {
    /// A schema over the given ordinal and categorical attributes.
    ///
    /// # Panics
    /// If an ordinal attribute fails [`OrdinalAttr::check`] — here, where
    /// the attribute is built, rather than inside the service on its first
    /// use.
    pub fn new(ordinal: Vec<OrdinalAttr>, categorical: Vec<CatAttr>) -> Self {
        for a in &ordinal {
            a.check().unwrap_or_else(|e| panic!("{e}"));
        }
        Schema {
            ordinal,
            categorical,
        }
    }

    /// Number of ordinal attributes (`m` in the paper).
    #[inline]
    pub fn num_ordinal(&self) -> usize {
        self.ordinal.len()
    }

    /// Number of categorical attributes (`m'` in the paper).
    #[inline]
    pub fn num_categorical(&self) -> usize {
        self.categorical.len()
    }

    /// The ordinal attribute with index `id`.
    #[inline]
    pub fn ordinal(&self, id: AttrId) -> &OrdinalAttr {
        &self.ordinal[id.0]
    }

    /// The categorical attribute with index `id`.
    #[inline]
    pub fn categorical(&self, id: CatId) -> &CatAttr {
        &self.categorical[id.0]
    }

    /// Iterate over ordinal attribute ids.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.ordinal.len()).map(AttrId)
    }

    /// Iterate over categorical attribute ids.
    pub fn cat_ids(&self) -> impl Iterator<Item = CatId> + '_ {
        (0..self.categorical.len()).map(CatId)
    }

    /// Look up an ordinal attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.ordinal.iter().position(|a| a.name == name).map(AttrId)
    }

    /// Look up a categorical attribute by name.
    pub fn cat_by_name(&self, name: &str) -> Option<CatId> {
        self.categorical
            .iter()
            .position(|a| a.name == name)
            .map(CatId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                OrdinalAttr::new("price", 0.0, 50_000.0),
                OrdinalAttr::new("mileage", 0.0, 300_000.0),
            ],
            vec![CatAttr::new("body_style", 6)],
        )
    }

    #[test]
    fn lookup_by_name() {
        let s = schema();
        assert_eq!(s.attr_by_name("mileage"), Some(AttrId(1)));
        assert_eq!(s.attr_by_name("nope"), None);
        assert_eq!(s.cat_by_name("body_style"), Some(CatId(0)));
    }

    #[test]
    fn counts_and_domains() {
        let s = schema();
        assert_eq!(s.num_ordinal(), 2);
        assert_eq!(s.num_categorical(), 1);
        assert_eq!(s.ordinal(AttrId(0)).domain_width(), 50_000.0);
        assert_eq!(s.attr_ids().count(), 2);
    }

    #[test]
    #[should_panic(expected = "point-only attribute 'grade' needs a non-empty")]
    fn a_point_only_attribute_without_values_is_refused_where_it_is_built() {
        let mut grade = OrdinalAttr::new("grade", 0.0, 5.0);
        grade.point_only = true;
        Schema::new(vec![grade], vec![]);
    }

    #[test]
    fn display_is_one_indexed_like_the_paper() {
        assert_eq!(AttrId(0).to_string(), "A1");
        assert_eq!(CatId(2).to_string(), "B3");
    }
}
