//! Corpus-wide string interning and interned token sets.
//!
//! Repository-scale scoring compares the same texts millions of times; the
//! profiled engine therefore tokenizes each text once, interns the tokens
//! in a corpus-wide [`StringPool`], and keeps the distinct token ids as a
//! sorted [`TokenIdSet`].  Set comparisons then become `O(a + b)` merges
//! over dense `u32` ids — no hashing, no string comparisons, no
//! allocation — and produce exactly the same counts (and therefore exactly
//! the same similarity values) as the string-based [`crate::jaccard_index`].

use std::collections::BTreeMap;

/// A corpus-wide string interner: every distinct token string maps to a
/// dense `u32` id.
#[derive(Debug, Clone, Default)]
pub struct StringPool {
    ids: BTreeMap<String, u32>,
    strings: Vec<String>,
}

impl StringPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        StringPool::default()
    }

    /// The interned strings in id order (`strings()[id]` is the token of
    /// `id`).
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Interns a token, returning its id (allocating a new id for unseen
    /// tokens).
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(token.to_string(), id);
        self.strings.push(token.to_string());
        id
    }

    /// The id of an already interned token, if any.
    pub fn lookup(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The token string behind an id.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Interns every token of an iterator and returns the *distinct* ids,
    /// sorted ascending — the canonical [`TokenIdSet`] representation.
    pub fn intern_set<I, S>(&mut self, tokens: I) -> TokenIdSet
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ids: Vec<u32> = tokens
            .into_iter()
            .map(|t| self.intern(t.as_ref()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        TokenIdSet { ids }
    }
}

/// Resolves tokens against a *frozen* [`StringPool`] without mutating it.
///
/// Known tokens map to their interned pool ids; unknown tokens are assigned
/// fresh ephemeral ids past the end of the pool (`pool.len() + i`, in
/// first-occurrence order), shared across every `resolve_set` call on the
/// same interner.  The resulting [`TokenIdSet`]s compare against any set
/// interned in the pool exactly as if the tokens had been interned mutably:
/// equal strings share an id, distinct strings never collide — so
/// intersection counts, set sizes, and therefore every Jaccard value are
/// bit-identical.  This is the query-side interning of a sharded corpus: a
/// search must profile its query against each shard's pool while concurrent
/// readers share that pool immutably.
pub struct FrozenInterner<'p> {
    pool: &'p StringPool,
    fresh: BTreeMap<String, u32>,
}

impl<'p> FrozenInterner<'p> {
    /// A resolver over a frozen pool.
    pub fn new(pool: &'p StringPool) -> Self {
        FrozenInterner {
            pool,
            fresh: BTreeMap::new(),
        }
    }

    /// The id of a token: its pool id if interned, otherwise a stable
    /// ephemeral id shared by every later occurrence on this interner.
    pub fn resolve(&mut self, token: &str) -> u32 {
        if let Some(id) = self.pool.lookup(token) {
            return id;
        }
        if let Some(&id) = self.fresh.get(token) {
            return id;
        }
        let id = (self.pool.len() + self.fresh.len()) as u32;
        self.fresh.insert(token.to_string(), id);
        id
    }

    /// [`StringPool::intern_set`] against the frozen pool: the distinct
    /// resolved ids, sorted ascending.
    pub fn resolve_set<I, S>(&mut self, tokens: I) -> TokenIdSet
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        TokenIdSet::from_ids(
            tokens
                .into_iter()
                .map(|t| self.resolve(t.as_ref()))
                .collect(),
        )
    }

    /// Number of tokens not found in the underlying pool so far.
    pub fn fresh_count(&self) -> usize {
        self.fresh.len()
    }
}

/// A set of interned token ids, stored sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenIdSet {
    ids: Vec<u32>,
}

impl TokenIdSet {
    /// Builds a set from arbitrary ids (sorting and deduplicating).
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        TokenIdSet { ids }
    }

    /// The sorted distinct ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Size of the intersection with another set, by word-batched sorted
    /// merge ([`intersect_sorted`]).
    // lint:hot the innermost comparison of every token-set similarity;
    // wfsim_lint forbids lock acquisition and heap allocation here.
    pub fn intersection_len(&self, other: &TokenIdSet) -> usize {
        intersect_sorted(&self.ids, &other.ids)
    }

    /// The Jaccard index `|A ∩ B| / |A ∪ B|` in a single `O(a + b)` merge.
    ///
    /// Matches [`crate::jaccard_index`] exactly, including the convention
    /// that two empty sets have similarity 1.
    // lint:hot called once per scored candidate pair on module-similarity
    // paths; must stay allocation- and lock-free.
    pub fn jaccard(&self, other: &TokenIdSet) -> f64 {
        jaccard_sorted(&self.ids, &other.ids)
    }

    /// An admissible upper bound on [`TokenIdSet::jaccard`] computable from
    /// the set sizes alone: `min(|A|, |B|) / max(|A|, |B|)`.
    pub fn jaccard_size_bound(&self, other: &TokenIdSet) -> f64 {
        let (a, b) = (self.len(), other.len());
        if a == 0 && b == 0 {
            return 1.0;
        }
        if a == 0 || b == 0 {
            return 0.0;
        }
        a.min(b) as f64 / a.max(b) as f64
    }
}

/// When one set is at least this many times larger than the other, the
/// merge switches from the word-batched linear path to galloping search
/// over the larger set.
const GALLOP_RATIO: usize = 16;

/// Intersection size of two sorted, deduplicated `u32` slices.
///
/// The workhorse behind [`TokenIdSet::intersection_len`]: a `u64`
/// word-batched merge for similar sizes and a galloping (exponential
/// probe + binary search) path when one side is ≥ `GALLOP_RATIO`×
/// larger.  Exactly equivalent to the classic three-way scalar merge
/// ([`intersect_sorted_scalar`]) for every valid input.
// lint:hot innermost loop of every token-set comparison; wfsim_lint
// forbids lock acquisition and heap allocation here.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    // Range-disjoint sets short-circuit without touching either body.
    // `small` is non-empty, so both first/last lookups are safe.
    let (s_first, s_last) = (small[0], small[small.len() - 1]);
    let (l_first, l_last) = (large[0], large[large.len() - 1]);
    if s_last < l_first || l_last < s_first {
        return 0;
    }
    if large.len() >= GALLOP_RATIO * small.len() {
        intersect_gallop(small, large)
    } else {
        intersect_words(small, large)
    }
}

/// Word-batched linear merge: packs adjacent pairs of `u32` ids into a
/// `u64` so one comparison can skip two elements at a time, falling back
/// to a branchless single-element step when the word ranges overlap.
// lint:hot body of intersect_sorted's balanced path; alloc/lock-free.
fn intersect_words(a: &[u32], b: &[u32]) -> usize {
    const LO: u64 = 0xFFFF_FFFF;
    let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
    while i + 1 < a.len() && j + 1 < b.len() {
        // wa = a[i] | a[i+1] << 32: the lane order makes a word compare
        // equivalent to comparing the *upper* (later, larger) element
        // first.  wa < (wb & LO) << 32  ⟺  a[i+1] < b[j], i.e. both of
        // a's packed elements sit strictly below b's window — skip both.
        let wa = u64::from(a[i]) | (u64::from(a[i + 1]) << 32);
        let wb = u64::from(b[j]) | (u64::from(b[j + 1]) << 32);
        if wa < (wb & LO) << 32 {
            i += 2;
        } else if wb < (wa & LO) << 32 {
            j += 2;
        } else {
            // Windows overlap: take one branchless merge step.
            let (x, y) = (a[i], b[j]);
            common += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
    }
    // Branchless scalar tail (at most one element left on one side).
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        common += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    common
}

/// Galloping merge for skewed sizes: for each element of the small set,
/// exponentially probe forward in the large set, then binary-search the
/// bracketed range.  `O(|small| · log |large|)`.
// lint:hot body of intersect_sorted's skewed path; alloc/lock-free.
fn intersect_gallop(small: &[u32], large: &[u32]) -> usize {
    let mut lo = 0usize;
    let mut common = 0usize;
    for &x in small {
        // Exponential probe: find a window [lo, lo + step) with
        // large[lo - 1] < x (everything before lo is < x).
        let mut step = 1usize;
        while lo + step <= large.len() && large[lo + step - 1] < x {
            lo += step;
            step <<= 1;
        }
        let hi = large.len().min(lo + step);
        lo += large[lo..hi].partition_point(|&v| v < x);
        if lo < large.len() && large[lo] == x {
            common += 1;
            lo += 1;
        } else if lo == large.len() {
            break;
        }
    }
    common
}

/// Reference scalar three-way merge, kept as the equivalence oracle for
/// property tests and the microbenchmark baseline.  Not used on hot
/// paths.
#[doc(hidden)]
pub fn intersect_sorted_scalar(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Jaccard index of two sorted, deduplicated `u32` slices, with the
/// empty-vs-empty = 1.0 convention of [`crate::jaccard_index`].
// lint:hot called once per scored candidate pair; alloc/lock-free.
pub fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = intersect_sorted(a, b);
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard_index;
    use crate::tokenize;

    #[test]
    fn interning_assigns_stable_dense_ids() {
        let mut pool = StringPool::new();
        let a = pool.intern("blast");
        let b = pool.intern("search");
        assert_eq!(pool.intern("blast"), a);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.lookup("search"), Some(b));
        assert_eq!(pool.lookup("missing"), None);
        assert_eq!(pool.resolve(a), Some("blast"));
        assert!(StringPool::new().is_empty());
    }

    #[test]
    fn intern_set_sorts_and_dedups() {
        let mut pool = StringPool::new();
        let set = pool.intern_set(["b", "a", "b", "c"]);
        assert_eq!(set.len(), 3);
        let ids = set.ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_jaccard_matches_the_string_based_jaccard() {
        let texts = [
            ("KEGG pathway analysis", "pathway analysis for genes"),
            ("", ""),
            ("blast", ""),
            ("a b c d", "c d e f g"),
            ("same same same", "same"),
        ];
        let mut pool = StringPool::new();
        for (ta, tb) in texts {
            let (toks_a, toks_b) = (tokenize(ta), tokenize(tb));
            let (sa, sb) = (pool.intern_set(&toks_a), pool.intern_set(&toks_b));
            assert_eq!(
                sa.jaccard(&sb),
                jaccard_index(&toks_a, &toks_b),
                "{ta:?} vs {tb:?}"
            );
        }
    }

    #[test]
    fn size_bound_dominates_the_exact_jaccard() {
        let mut pool = StringPool::new();
        let cases = [
            (vec!["a", "b", "c"], vec!["b", "c", "d", "e"]),
            (vec![], vec![]),
            (vec!["x"], vec![]),
            (vec!["x", "y"], vec!["x", "y"]),
        ];
        for (ta, tb) in cases {
            let sa = pool.intern_set(ta.iter());
            let sb = pool.intern_set(tb.iter());
            assert!(sa.jaccard_size_bound(&sb) + 1e-12 >= sa.jaccard(&sb));
        }
    }

    #[test]
    fn frozen_interner_matches_mutable_interning_without_touching_the_pool() {
        let mut pool = StringPool::new();
        let resident = pool.intern_set(["blast", "search", "protein"]);
        let pool_len = pool.len();

        // A mutable clone is the reference for what interning *would* do.
        let mut reference_pool = pool.clone();
        let reference = reference_pool.intern_set(["blast", "kegg", "pathway", "kegg"]);

        let mut frozen = FrozenInterner::new(&pool);
        let resolved = frozen.resolve_set(["blast", "kegg", "pathway", "kegg"]);
        assert_eq!(pool.len(), pool_len, "frozen resolution must not intern");
        assert_eq!(frozen.fresh_count(), 2);
        assert_eq!(resolved.len(), reference.len());
        assert_eq!(
            resolved.intersection_len(&resident),
            reference.intersection_len(&resident)
        );
        assert_eq!(resolved.jaccard(&resident), reference.jaccard(&resident));

        // Fresh ids are stable across later calls on the same interner.
        let again = frozen.resolve_set(["kegg"]);
        assert_eq!(again.intersection_len(&resolved), 1);
        // ... and never collide with pool ids.
        assert!(resolved
            .ids()
            .iter()
            .all(|&id| { pool.resolve(id).is_some() || id as usize >= pool_len }));
    }

    #[test]
    fn intersection_len_by_merge() {
        let a = TokenIdSet::from_ids(vec![5, 1, 3, 3]);
        let b = TokenIdSet::from_ids(vec![3, 4, 5, 9]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(b.intersection_len(&a), 2);
        assert_eq!(a.intersection_len(&TokenIdSet::default()), 0);
    }

    /// Deterministic pseudo-random sorted set (xorshift) for kernel tests.
    fn pseudo_set(seed: u64, len: usize, universe: u32) -> Vec<u32> {
        let mut state = seed | 1;
        let mut ids: Vec<u32> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % u64::from(universe.max(1))) as u32
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn word_batched_and_galloping_paths_match_the_scalar_merge() {
        // Sweep size skews so both the word path and the gallop path run,
        // plus boundary shapes (empty, disjoint ranges, identical sets).
        let shapes: &[(usize, usize, u32)] = &[
            (0, 0, 10),
            (0, 40, 10),
            (1, 1, 4),
            (3, 400, 1000),   // gallop: 400 ≥ 16 × 3
            (5, 64, 200),     // words: below the gallop ratio
            (33, 47, 90),     // dense overlap, odd lengths
            (64, 64, 70),     // near-identical sets, even lengths
            (2, 1000, 5000),  // deep gallop
            (128, 129, 4000), // sparse overlap
        ];
        for (case, &(la, lb, universe)) in shapes.iter().enumerate() {
            let a = pseudo_set(0x9E37 + case as u64, la, universe);
            let b = pseudo_set(0x85EB + 3 * case as u64, lb, universe);
            let reference = intersect_sorted_scalar(&a, &b);
            assert_eq!(intersect_sorted(&a, &b), reference, "case {case} a∩b");
            assert_eq!(intersect_sorted(&b, &a), reference, "case {case} b∩a");
            assert_eq!(intersect_words(&a, &b), reference, "case {case} words");
            let (small, large) = if la <= lb { (&a, &b) } else { (&b, &a) };
            assert_eq!(
                intersect_gallop(small, large),
                reference,
                "case {case} gallop"
            );
        }
        // Range-disjoint short circuit.
        assert_eq!(intersect_sorted(&[1, 2, 3], &[10, 20]), 0);
        assert_eq!(intersect_sorted(&[10, 20], &[1, 2, 3]), 0);
    }

    #[test]
    fn jaccard_sorted_keeps_the_empty_empty_convention() {
        assert_eq!(jaccard_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[1], &[]), 0.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[2, 3]), 1.0 / 3.0);
    }
}
