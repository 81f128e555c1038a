//! # wf-text — text preprocessing and string similarity
//!
//! The annotation-based measures of the paper (Section 2.2) and the module
//! comparison schemes (Section 2.1.1) rely on a small set of text
//! primitives, implemented here without external dependencies:
//!
//! * [`levenshtein`](mod@levenshtein) — the Levenshtein edit distance and the normalized
//!   string similarity derived from it (`pll`, `pw0`, `pw3` label / script /
//!   description comparison).
//! * [`tokenize`](mod@tokenize) — the Bag-of-Words tokenization pipeline: split on
//!   whitespace and underscores, lowercase, strip non-alphanumeric
//!   characters.
//! * [`stopwords`] — the English stop-word list applied to workflow titles
//!   and descriptions (tags are deliberately *not* filtered, following the
//!   paper).
//! * [`bag`] — token multiset ("bag") utilities, including both the
//!   set-semantics Jaccard used by the paper and the multiset variant the
//!   paper mentions trying and discarding.
//! * [`jaccard`] — the plain Jaccard index on sets, and the similarity
//!   quotient `matches / (matches + mismatches)` used by Bag of Words / Bag
//!   of Tags.
//! * [`intern`] — corpus-wide string interning and sorted-id token sets
//!   with `O(a+b)` merge-based Jaccard, the substrate of the corpus-resident
//!   similarity engine.
//! * [`signature`] — fixed-size character-frequency signatures giving
//!   admissible constant-time lower bounds on the Levenshtein distance,
//!   used by the upper-bound pruning search.

#![deny(unsafe_code)]

pub mod bag;
pub mod intern;
pub mod jaccard;
pub mod levenshtein;
pub mod signature;
pub mod stopwords;
pub mod tokenize;

pub use bag::TokenBag;
pub use intern::{
    intersect_sorted, intersect_sorted_scalar, jaccard_sorted, FrozenInterner, StringPool,
    TokenIdSet,
};
pub use jaccard::{jaccard_index, match_mismatch_similarity};
pub use levenshtein::{
    levenshtein, levenshtein_bounded, levenshtein_similarity, levenshtein_similarity_with_lens,
};
pub use signature::CharSignature;
pub use stopwords::is_stopword;
pub use tokenize::{tokenize, tokenize_filtered};
