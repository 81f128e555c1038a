//! Token bags: the intermediate representation of the annotation measures.
//!
//! A [`TokenBag`] stores the tokens of a piece of text (or a tag list)
//! together with their multiplicities, and knows how to compare itself to
//! another bag with either set semantics (the paper's choice) or multiset
//! semantics (the ablation the paper mentions).

use std::collections::BTreeMap;

use crate::jaccard::{jaccard_index, multiset_jaccard};
use crate::tokenize::{tokenize, tokenize_filtered};

/// A bag (multiset) of lowercase tokens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenBag {
    counts: BTreeMap<String, usize>,
    total: usize,
}

impl TokenBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        TokenBag::default()
    }

    /// Builds a bag from free text using the full Bag-of-Words pipeline
    /// (tokenize, lowercase, cleanse, remove stop words).
    pub fn from_text(text: &str) -> Self {
        let mut bag = TokenBag::new();
        for t in tokenize_filtered(text) {
            bag.insert(t);
        }
        bag
    }

    /// Builds a bag from free text *without* stop-word removal.
    pub fn from_text_unfiltered(text: &str) -> Self {
        let mut bag = TokenBag::new();
        for t in tokenize(text) {
            bag.insert(t);
        }
        bag
    }

    /// Builds a bag from a list of tags.
    ///
    /// Following the paper (Section 2.2, Bag of Tags), "no stopword removal
    /// or other preprocessing of the tags is performed" beyond
    /// lowercasing, since tags are expected to be deliberately chosen by the
    /// author.  Each tag is kept as a single token even if it contains
    /// spaces.
    pub fn from_tags<S: AsRef<str>>(tags: &[S]) -> Self {
        let mut bag = TokenBag::new();
        for t in tags {
            let t = t.as_ref().trim().to_lowercase();
            if !t.is_empty() {
                bag.insert(t);
            }
        }
        bag
    }

    /// Inserts one token.
    pub fn insert(&mut self, token: impl Into<String>) {
        *self.counts.entry(token.into()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of *distinct* tokens.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Total number of tokens including duplicates.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// True if the bag contains no tokens.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The multiplicity of a token.
    pub fn count(&self, token: &str) -> usize {
        self.counts.get(token).copied().unwrap_or(0)
    }

    /// The distinct tokens, sorted.
    pub fn tokens(&self) -> Vec<&str> {
        self.counts.keys().map(String::as_str).collect()
    }

    /// Set-semantics similarity (`#matches / (#matches + #mismatches)`),
    /// the formulation used by the paper for Bag of Words and Bag of Tags.
    pub fn set_similarity(&self, other: &TokenBag) -> f64 {
        jaccard_index(&self.tokens(), &other.tokens())
    }

    /// Multiset-semantics similarity — the variant the paper evaluated and
    /// found to perform slightly worse.
    pub fn multiset_similarity(&self, other: &TokenBag) -> f64 {
        let expand = |bag: &TokenBag| -> Vec<String> {
            bag.counts
                .iter()
                .flat_map(|(t, &c)| std::iter::repeat_n(t.clone(), c))
                .collect()
        };
        multiset_jaccard(&expand(self), &expand(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_applies_full_pipeline() {
        let bag = TokenBag::from_text("The KEGG pathway_analysis of genes");
        assert_eq!(bag.tokens(), vec!["analysis", "genes", "kegg", "pathway"]);
        assert_eq!(bag.count("kegg"), 1);
        assert_eq!(bag.count("the"), 0, "stop words filtered");
    }

    #[test]
    fn unfiltered_variant_keeps_stopwords() {
        let bag = TokenBag::from_text_unfiltered("the pathway");
        assert_eq!(bag.count("the"), 1);
    }

    #[test]
    fn from_tags_keeps_tags_whole_and_lowercases() {
        let bag = TokenBag::from_tags(&["KEGG", "pathway analysis", " ", "BLAST"]);
        assert_eq!(bag.tokens(), vec!["blast", "kegg", "pathway analysis"]);
        assert_eq!(bag.distinct_len(), 3);
    }

    #[test]
    fn counts_and_lengths() {
        let bag = TokenBag::from_text_unfiltered("gene gene protein");
        assert_eq!(bag.total_len(), 3);
        assert_eq!(bag.distinct_len(), 2);
        assert_eq!(bag.count("gene"), 2);
        assert!(!bag.is_empty());
        assert!(TokenBag::new().is_empty());
    }

    #[test]
    fn set_similarity_matches_paper_formula() {
        let a = TokenBag::from_text("KEGG pathway analysis");
        let b = TokenBag::from_text("pathway analysis for genes");
        // tokens a: {kegg, pathway, analysis}, b: {pathway, analysis, genes}
        // matches = 2, mismatches = 2 -> 0.5
        assert_eq!(a.set_similarity(&b), 0.5);
        assert_eq!(a.set_similarity(&b), b.set_similarity(&a));
    }

    #[test]
    fn identical_bags_have_similarity_one() {
        let a = TokenBag::from_text("protein blast search");
        assert_eq!(a.set_similarity(&a.clone()), 1.0);
        assert_eq!(a.multiset_similarity(&a.clone()), 1.0);
    }

    #[test]
    fn multiset_similarity_is_stricter_with_repeats() {
        let a = TokenBag::from_text_unfiltered("gene gene protein");
        let b = TokenBag::from_text_unfiltered("gene protein protein");
        assert_eq!(a.set_similarity(&b), 1.0);
        assert!(a.multiset_similarity(&b) < 1.0);
    }

    #[test]
    fn empty_bags_are_identical() {
        let a = TokenBag::new();
        let b = TokenBag::from_text("of the and");
        assert!(b.is_empty(), "all tokens were stop words");
        assert_eq!(a.set_similarity(&b), 1.0);
    }
}
