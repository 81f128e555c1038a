//! Common types shared by all mapping algorithms.

use std::fmt;

/// One mapped pair of items: a left index, a right index and the similarity
/// weight of the pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedPair {
    /// Index into the left item list (rows of the similarity matrix).
    pub left: usize,
    /// Index into the right item list (columns of the similarity matrix).
    pub right: usize,
    /// The similarity weight of the pair.
    pub weight: f64,
}

/// A (partial) one-to-one mapping between two item lists.
///
/// Every left index and every right index occurs in at most one pair.  Pairs
/// with zero weight are never included: they contribute nothing to the
/// additive similarity scores of the paper and their omission keeps greedy
/// and optimal mappings comparable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mapping {
    /// The mapped pairs, sorted by left index.
    pub pairs: Vec<MappedPair>,
}

impl Mapping {
    /// Creates a mapping from raw pairs, sorting by left index and asserting
    /// (in debug builds) that the one-to-one property holds.
    pub fn new(mut pairs: Vec<MappedPair>) -> Self {
        pairs.sort_by_key(|p| p.left);
        debug_assert!(
            {
                let mut lefts: Vec<usize> = pairs.iter().map(|p| p.left).collect();
                let mut rights: Vec<usize> = pairs.iter().map(|p| p.right).collect();
                lefts.dedup();
                rights.sort_unstable();
                rights.dedup();
                lefts.len() == pairs.len() && rights.len() == pairs.len()
            },
            "mapping must be one-to-one"
        );
        Mapping { pairs }
    }

    /// The number of mapped pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if nothing was mapped.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The additive similarity score `Σ sim(m, m')` over all mapped pairs —
    /// the `nnsim` building block of the paper's measures.  An empty
    /// mapping weighs `+0.0`, the score a zero bound stands for (a float
    /// `sum` of nothing is `-0.0`).
    pub fn total_weight(&self) -> f64 {
        self.pairs.iter().fold(0.0, |total, p| total + p.weight)
    }

    /// The right partner mapped to a given left index, if any.
    pub fn right_of(&self, left: usize) -> Option<usize> {
        self.pairs.iter().find(|p| p.left == left).map(|p| p.right)
    }

    /// The left partner mapped to a given right index, if any.
    pub fn left_of(&self, right: usize) -> Option<usize> {
        self.pairs.iter().find(|p| p.right == right).map(|p| p.left)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}↔{} ({:.3})", p.left, p.right, p.weight)?;
        }
        write!(f, "}}")
    }
}

/// The mapping strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingStrategy {
    /// Greedy selection of the highest-weight remaining pair (ref. \[34\]).
    Greedy,
    /// Maximum-weight bipartite matching, `mw` (ref. \[4\]).
    MaximumWeight,
    /// Maximum-weight non-crossing matching, `mwnc` (ref. \[27\]); requires
    /// that the item order is meaningful (e.g. modules along a path).
    MaximumWeightNonCrossing,
}

impl fmt::Display for MappingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MappingStrategy::Greedy => "greedy",
            MappingStrategy::MaximumWeight => "mw",
            MappingStrategy::MaximumWeightNonCrossing => "mwnc",
        };
        f.write_str(s)
    }
}

/// A dense rectangular matrix of pairwise similarities.
///
/// Rows index the left item list, columns the right item list.  Values are
/// expected to be finite and non-negative (similarities in `[0, 1]` in
/// practice); negative values are clamped to zero on construction so that
/// "no similarity" and "do not map" coincide.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SimilarityMatrix {
            rows,
            cols,
            values: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row vectors.  All rows must have equal length.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == c),
            "all rows must have the same length"
        );
        let mut m = SimilarityMatrix::zeros(r, c);
        for (i, row) in rows.into_iter().enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Fills a matrix by evaluating `f(i, j)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = SimilarityMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows (left items).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (right items).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads a cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.cols + col]
    }

    /// Writes a cell, clamping negative and NaN values to zero.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        self.values[row * self.cols + col] = v;
    }

    /// True if the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The largest value in the matrix (0.0 for empty matrices).
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_accessors() {
        let m = Mapping::new(vec![
            MappedPair {
                left: 2,
                right: 0,
                weight: 0.5,
            },
            MappedPair {
                left: 0,
                right: 1,
                weight: 1.0,
            },
        ]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.pairs[0].left, 0, "pairs are sorted by left index");
        assert_eq!(m.total_weight(), 1.5);
        assert_eq!(m.right_of(2), Some(0));
        assert_eq!(m.left_of(1), Some(0));
        assert_eq!(m.right_of(7), None);
        assert_eq!(m.left_of(7), None);
        assert_eq!(m.to_string(), "{0↔1 (1.000), 2↔0 (0.500)}");
        // Nothing mapped weighs +0.0, never -0.0.
        assert_eq!(Mapping::new(Vec::new()).total_weight().to_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "one-to-one")]
    #[cfg(debug_assertions)]
    fn duplicate_left_index_is_rejected_in_debug() {
        let _ = Mapping::new(vec![
            MappedPair {
                left: 0,
                right: 0,
                weight: 0.5,
            },
            MappedPair {
                left: 0,
                right: 1,
                weight: 0.5,
            },
        ]);
    }

    #[test]
    fn matrix_construction_and_access() {
        let m = SimilarityMatrix::from_rows(vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 1), 0.4);
        assert_eq!(m.max_value(), 0.6);
        assert!(!m.is_empty());
        assert!(SimilarityMatrix::zeros(0, 3).is_empty());
    }

    #[test]
    fn matrix_from_fn_and_clamping() {
        let mut m = SimilarityMatrix::from_fn(2, 2, |i, j| (i + j) as f64 / 2.0);
        assert_eq!(m.get(1, 1), 1.0);
        m.set(0, 0, -3.0);
        assert_eq!(m.get(0, 0), 0.0);
        m.set(0, 0, f64::NAN);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_panic() {
        let _ = SimilarityMatrix::from_rows(vec![vec![0.1], vec![0.2, 0.3]]);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(MappingStrategy::Greedy.to_string(), "greedy");
        assert_eq!(MappingStrategy::MaximumWeight.to_string(), "mw");
        assert_eq!(
            MappingStrategy::MaximumWeightNonCrossing.to_string(),
            "mwnc"
        );
    }
}
