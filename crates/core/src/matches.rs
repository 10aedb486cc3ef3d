//! Matches and partial-match bindings shared by all engines.

use crate::compile::CompiledPattern;
use crate::event::{window_expired, EventRef, Timestamp};
use crate::selection::SelectionStrategy;
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// The event(s) bound at one pattern position.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// A single event (ordinary element).
    One(EventRef),
    /// A non-empty event set (Kleene element), in serial-number order.
    Many(Vec<EventRef>),
}

impl Binding {
    /// Iterates over the bound events.
    pub fn events(&self) -> impl Iterator<Item = &EventRef> {
        match self {
            Binding::One(e) => std::slice::from_ref(e).iter(),
            Binding::Many(es) => es.iter(),
        }
    }

    /// Number of bound events.
    pub fn len(&self) -> usize {
        match self {
            Binding::One(_) => 1,
            Binding::Many(es) => es.len(),
        }
    }

    /// Whether no events are bound (only possible for an empty `Many`,
    /// which engines never emit).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum timestamp among bound events.
    pub fn min_ts(&self) -> Timestamp {
        self.events()
            .map(|e| e.ts)
            .min()
            .expect("non-empty binding")
    }

    /// Maximum timestamp among bound events.
    pub fn max_ts(&self) -> Timestamp {
        self.events()
            .map(|e| e.ts)
            .max()
            .expect("non-empty binding")
    }
}

/// A detected full match.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// `(pattern position, binding)` per positive element, in the compiled
    /// pattern's element order.
    pub bindings: Vec<(usize, Binding)>,
    /// Timestamp of the temporally last contributing event.
    pub last_ts: Timestamp,
    /// Watermark at emission time (differs from `last_ts` when emission was
    /// deferred for a trailing negation).
    pub emitted_at: Timestamp,
}

impl Match {
    /// Minimum timestamp over all bound events.
    pub fn min_ts(&self) -> Timestamp {
        self.bindings
            .iter()
            .map(|(_, b)| b.min_ts())
            .min()
            .expect("matches are non-empty")
    }

    /// Maximum timestamp over all bound events.
    pub fn max_ts(&self) -> Timestamp {
        self.bindings
            .iter()
            .map(|(_, b)| b.max_ts())
            .max()
            .expect("matches are non-empty")
    }

    /// All bound events, across positions.
    pub fn events(&self) -> impl Iterator<Item = &EventRef> {
        self.bindings.iter().flat_map(|(_, b)| b.events())
    }

    /// Canonical identity of the match: which events are bound to which
    /// positions (see [`MatchKey`]). Two matches with equal signatures bind
    /// the same events to the same positions. Used for result comparison
    /// in tests and for duplicate suppression wherever match streams merge.
    pub fn signature(&self) -> MatchKey {
        let len = self.bindings.iter().map(|(_, b)| 2 + b.len()).sum();
        let mut key = Vec::with_capacity(len);
        let mut push = |pos: usize, b: &Binding| {
            key.push(pos as u64);
            key.push(b.len() as u64);
            let start = key.len();
            key.extend(b.events().map(|e| e.seq));
            key[start..].sort_unstable();
        };
        // Bindings come in element order, which is usually but not always
        // position order.
        if self.bindings.is_sorted_by_key(|(pos, _)| *pos) {
            self.bindings.iter().for_each(|(pos, b)| push(*pos, b));
        } else {
            let mut by_pos: Vec<&(usize, Binding)> = self.bindings.iter().collect();
            by_pos.sort_by_key(|(pos, _)| *pos);
            by_pos.into_iter().for_each(|(pos, b)| push(*pos, b));
        }
        MatchKey(key.into_boxed_slice())
    }
}

/// The one match identity: which event serial numbers are bound at which
/// pattern positions.
///
/// One flat, length-prefixed buffer: positions ascending, and for each the
/// position, the number of bound events and their serials ascending. The
/// counts keep distinct binding sets apart — `{0:[1], 2:[3]}` is
/// `[0,1,1, 2,1,3]` while `{0:[1,2,3]}` is `[0,3,1,2,3]` — at one
/// allocation per match. [`Debug`](fmt::Debug), [`iter`](MatchKey::iter)
/// and by-value iteration present the nested `(position, serials)` form,
/// and keys order exactly as that nested form does.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MatchKey(Box<[u64]>);

impl MatchKey {
    /// `(position, ascending serials)` per bound position, positions
    /// ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u64])> {
        let mut rest = &self.0[..];
        std::iter::from_fn(move || {
            let [pos, len, tail @ ..] = rest else {
                return None;
            };
            let (seqs, tail) = tail.split_at(*len as usize);
            rest = tail;
            Some((*pos as usize, seqs))
        })
    }
}

impl IntoIterator for MatchKey {
    type Item = (usize, Vec<u64>);
    type IntoIter = std::vec::IntoIter<(usize, Vec<u64>)>;

    fn into_iter(self) -> Self::IntoIter {
        let nested: Vec<_> = self.iter().map(|(pos, s)| (pos, s.to_vec())).collect();
        nested.into_iter()
    }
}

impl Ord for MatchKey {
    fn cmp(&self, other: &MatchKey) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for MatchKey {
    fn partial_cmp(&self, other: &MatchKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for MatchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The one first-sighting memory of match identities, for one window: each
/// recorded [`MatchKey`] with its match's maximum event timestamp. A key
/// is forgotten once [`window_expired`]`(max_ts, window, watermark)` holds
/// for the watermark last passed to [`expire`](SeenMatches::expire). By
/// then no branch or replay re-emits the match: a deferred emission is
/// released by the first event past its window, before the key expires.
#[derive(Debug)]
pub struct SeenMatches {
    window: u64,
    keys: HashMap<MatchKey, Timestamp>,
    watermark: Timestamp,
    /// Watermark from which the next pass dropping expired keys runs.
    next_pass: Timestamp,
}

impl SeenMatches {
    /// An empty memory for matches of a pattern with `window`.
    pub fn new(window: u64) -> SeenMatches {
        SeenMatches {
            window,
            keys: HashMap::new(),
            watermark: 0,
            next_pass: 0,
        }
    }

    /// Whether `key` was recorded and has not expired.
    pub fn contains(&self, key: &MatchKey) -> bool {
        self.keys
            .get(key)
            .is_some_and(|&ts| !window_expired(ts, self.window, self.watermark))
    }

    /// Records `key` for a match whose last event is at `max_ts`; returns
    /// whether this is its first sighting (it was never recorded, or
    /// has expired since).
    pub fn insert(&mut self, key: MatchKey, max_ts: Timestamp) -> bool {
        let (window, watermark) = (self.window, self.watermark);
        match self.keys.entry(key) {
            Entry::Occupied(e) if !window_expired(*e.get(), window, watermark) => false,
            entry => {
                entry.insert_entry(max_ts);
                true
            }
        }
    }

    /// Advances the watermark to `watermark`, forgetting every key whose
    /// window has expired. Expired keys are dropped by one pass per window
    /// of watermark time, so each key is visited at most twice.
    pub fn expire(&mut self, watermark: Timestamp) {
        self.watermark = self.watermark.max(watermark);
        if self.watermark < self.next_pass {
            return;
        }
        let (window, watermark) = (self.window, self.watermark);
        self.keys
            .retain(|_, &mut ts| !window_expired(ts, window, watermark));
        self.next_pass = watermark.saturating_add(window).saturating_add(1);
    }
}

/// Sorts matches into the canonical deterministic order used wherever
/// match streams merge: by emission watermark, then by the timestamp of
/// the last contributing event, then by [`Match::signature`]. The key
/// identifies a match completely, so the order is total — applying it to
/// a single-threaded engine's output yields exactly what a sharded run
/// returns whenever the query is partition-local.
pub fn canonical_sort(matches: &mut [Match]) {
    matches.sort_by_cached_key(|m| (m.emitted_at, m.last_ts, m.signature()));
}

/// Sorted match signatures — the set-identity reference of the tests.
pub fn signatures(ms: &[Match]) -> Vec<MatchKey> {
    let mut sigs: Vec<_> = ms.iter().map(Match::signature).collect();
    sigs.sort();
    sigs
}

/// Sorted `(signature, emitted_at)` pairs — the byte-identity reference:
/// two engines agreeing here emit the same matches *at the same
/// watermarks*.
pub fn keyed(ms: &[Match]) -> Vec<(MatchKey, Timestamp)> {
    let mut ks: Vec<_> = ms.iter().map(|m| (m.signature(), m.emitted_at)).collect();
    ks.sort();
    ks
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (pos, b)) in self.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "e{pos}=[")?;
            for (j, e) in b.events().enumerate() {
                if j > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "#{}", e.seq)?;
            }
            f.write_str("]")?;
        }
        f.write_str("}")
    }
}

/// Validates that a match satisfies the positive constraints of a compiled
/// pattern: distinct events, window, temporal order, predicates, and the
/// selection strategy's contiguity requirements.
///
/// Negation cannot be validated from the match alone (it asserts the
/// *absence* of stream events); use the naive oracle for that.
pub fn validate_match(cp: &CompiledPattern, m: &Match) -> Result<(), String> {
    if m.bindings.len() != cp.n() {
        return Err(format!(
            "expected {} bindings, got {}",
            cp.n(),
            m.bindings.len()
        ));
    }
    // Positions must correspond to elements; Kleene-ness must agree.
    for (i, (pos, b)) in m.bindings.iter().enumerate() {
        let Some(ei) = cp.elem_index(*pos) else {
            return Err(format!("binding references unknown position {pos}"));
        };
        if ei != i {
            return Err(format!("bindings out of element order at {i}"));
        }
        let elem = &cp.elements[ei];
        match b {
            Binding::One(e) => {
                if elem.kleene {
                    return Err(format!("element {ei} is Kleene but bound once"));
                }
                if e.type_id != elem.event_type {
                    return Err(format!("element {ei} bound to wrong type"));
                }
            }
            Binding::Many(es) => {
                if !elem.kleene {
                    return Err(format!("element {ei} is not Kleene but bound to a set"));
                }
                if es.is_empty() {
                    return Err(format!("element {ei} bound to an empty set"));
                }
                if es.iter().any(|e| e.type_id != elem.event_type) {
                    return Err(format!("element {ei} set contains wrong type"));
                }
            }
        }
    }
    // Distinctness.
    let mut seqs: Vec<u64> = m.events().map(|e| e.seq).collect();
    seqs.sort_unstable();
    if seqs.windows(2).any(|w| w[0] == w[1]) {
        return Err("an event is bound to two positions".into());
    }
    // Window.
    if m.max_ts() - m.min_ts() > cp.window {
        return Err(format!(
            "window violated: span {} > {}",
            m.max_ts() - m.min_ts(),
            cp.window
        ));
    }
    // Temporal order: every event of element i strictly before every event
    // of element j whenever i must precede j.
    for i in 0..cp.n() {
        for j in 0..cp.n() {
            if i != j && cp.must_precede(i, j) {
                let bi = &m.bindings[i].1;
                let bj = &m.bindings[j].1;
                if bi.max_ts() >= bj.min_ts() {
                    return Err(format!("temporal order violated between {i} and {j}"));
                }
            }
        }
    }
    // Predicates (Kleene positions: every member event must satisfy).
    for p in &cp.predicates {
        let (a, b) = p.position_pair();
        if a == usize::MAX {
            continue;
        }
        let Some(ea) = cp.elem_index(a) else {
            continue; // involves a negated position: not checkable here
        };
        match b {
            None => {
                for e in m.bindings[ea].1.events() {
                    if !p.eval_single(a, e) {
                        return Err(format!("filter {p} violated"));
                    }
                }
            }
            Some(bpos) => {
                let Some(eb) = cp.elem_index(bpos) else {
                    continue;
                };
                for x in m.bindings[ea].1.events() {
                    for y in m.bindings[eb].1.events() {
                        if !p.eval_pair(a, x, bpos, y) {
                            return Err(format!("predicate {p} violated"));
                        }
                    }
                }
            }
        }
    }
    // Contiguity.
    if cp.strategy.contiguous() {
        let mut evs: Vec<&EventRef> = m.events().collect();
        evs.sort_by_key(|e| e.seq);
        for w in evs.windows(2) {
            if !cp.strategy.neighbours_ok(w[0], w[1]) {
                return Err(format!(
                    "{} violated between #{} and #{}",
                    cp.strategy, w[0].seq, w[1].seq
                ));
            }
        }
        if cp.strategy == SelectionStrategy::PartitionContiguity {
            let p0 = evs[0].partition;
            if evs.iter().any(|e| e.partition != p0) {
                return Err("partition contiguity across partitions".into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TypeId};
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};
    use crate::value::Value;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn ev(tid: u32, ts: u64, seq: u64, x: i64) -> EventRef {
        let mut e = Event::new(TypeId(tid), ts, vec![Value::Int(x)]);
        e.seq = seq;
        Arc::new(e)
    }

    fn cp_seq2() -> CompiledPattern {
        let mut b = PatternBuilder::new(10);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap()
    }

    fn mk(bindings: Vec<(usize, Binding)>) -> Match {
        let last_ts = bindings
            .iter()
            .flat_map(|(_, b)| b.events().map(|e| e.ts).collect::<Vec<_>>())
            .max()
            .unwrap();
        Match {
            bindings,
            last_ts,
            emitted_at: last_ts,
        }
    }

    #[test]
    fn valid_match_passes() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 1))),
            (1, Binding::One(ev(1, 2, 1, 5))),
        ]);
        assert_eq!(validate_match(&cp, &m), Ok(()));
    }

    #[test]
    fn window_violation_detected() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 1))),
            (1, Binding::One(ev(1, 50, 1, 5))),
        ]);
        assert!(validate_match(&cp, &m).unwrap_err().contains("window"));
    }

    #[test]
    fn order_violation_detected() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 5, 1, 1))),
            (1, Binding::One(ev(1, 2, 0, 5))),
        ]);
        assert!(validate_match(&cp, &m).unwrap_err().contains("order"));
    }

    #[test]
    fn predicate_violation_detected() {
        let cp = cp_seq2();
        let m = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 9))),
            (1, Binding::One(ev(1, 2, 1, 5))),
        ]);
        assert!(validate_match(&cp, &m).unwrap_err().contains("predicate"));
    }

    #[test]
    fn duplicate_event_detected() {
        let cp = cp_seq2();
        let e = ev(0, 1, 0, 1);
        let mut e2 = (*e).clone();
        e2.type_id = TypeId(1);
        e2.ts = 2;
        // Same seq bound twice.
        let m = mk(vec![(0, Binding::One(e)), (1, Binding::One(Arc::new(e2)))]);
        assert!(validate_match(&cp, &m)
            .unwrap_err()
            .contains("two positions"));
    }

    #[test]
    fn signature_is_canonical() {
        let m1 = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 1))),
            (1, Binding::One(ev(1, 2, 1, 5))),
        ]);
        let m2 = mk(vec![
            (0, Binding::One(ev(0, 1, 0, 7))),
            (1, Binding::One(ev(1, 2, 1, 9))),
        ]);
        assert_eq!(m1.signature(), m2.signature()); // same (pos, seq) shape
        assert_eq!(
            m1.signature().into_iter().collect::<Vec<_>>(),
            vec![(0, vec![0]), (1, vec![1])]
        );
    }

    /// A match binding `(position, serials)` pairs; Kleene sets become
    /// [`Binding::Many`].
    fn bound(bindings: &[(usize, Vec<u64>)]) -> Match {
        mk(bindings
            .iter()
            .map(|(pos, seqs)| {
                let evs: Vec<EventRef> = seqs.iter().map(|&s| ev(0, s, s, 0)).collect();
                let b = match evs.as_slice() {
                    [one] => Binding::One(one.clone()),
                    _ => Binding::Many(evs),
                };
                (*pos, b)
            })
            .collect())
    }

    #[test]
    fn key_counts_separate_positions_from_serials() {
        // Plain concatenation would give both [0, 1, 2, 3].
        let split = bound(&[(0, vec![1]), (2, vec![3])]).signature();
        let kleene = bound(&[(0, vec![1, 2, 3])]).signature();
        assert_ne!(split, kleene);
        assert_eq!(format!("{split:?}"), "[(0, [1]), (2, [3])]");
        assert_eq!(format!("{kleene:?}"), "[(0, [1, 2, 3])]");
    }

    /// The nested form a key must agree with: positions ascending, each
    /// with its serials ascending.
    fn nested(bindings: &[(usize, Vec<u64>)]) -> Vec<(usize, Vec<u64>)> {
        let mut n: Vec<(usize, Vec<u64>)> = bindings
            .iter()
            .map(|(pos, seqs)| {
                let mut seqs = seqs.clone();
                seqs.sort_unstable();
                (*pos, seqs)
            })
            .collect();
        n.sort();
        n
    }

    /// Keeps the first binding drawn for each position, in reverse draw
    /// order (so element order is not position order).
    fn distinct_positions(raw: Vec<(usize, Vec<u64>)>) -> Vec<(usize, Vec<u64>)> {
        let mut out: Vec<(usize, Vec<u64>)> = Vec::new();
        for (pos, seqs) in raw {
            if out.iter().all(|(p, _)| *p != pos) {
                out.insert(0, (pos, seqs));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn key_equality_and_order_follow_the_nested_form(
            a in prop::collection::vec((0usize..4, prop::collection::vec(0u64..5, 1..=4)), 1..=3),
            b in prop::collection::vec((0usize..4, prop::collection::vec(0u64..5, 1..=4)), 1..=3),
        ) {
            let (a, b) = (distinct_positions(a), distinct_positions(b));
            let (ka, kb) = (bound(&a).signature(), bound(&b).signature());
            prop_assert_eq!(ka == kb, nested(&a) == nested(&b));
            prop_assert_eq!(ka.cmp(&kb), nested(&a).cmp(&nested(&b)));
            let mut reordered = a.clone();
            reordered.reverse();
            for (_, seqs) in &mut reordered {
                seqs.reverse();
            }
            prop_assert_eq!(&bound(&reordered).signature(), &ka);
            prop_assert_eq!(ka.into_iter().collect::<Vec<_>>(), nested(&a));
        }
    }

    fn key(serial: u64) -> MatchKey {
        bound(&[(0, vec![serial])]).signature()
    }

    #[test]
    fn seen_matches_keeps_a_key_until_its_window_expires() {
        // A span equal to the window is kept, exactly as `window_expired`
        // keeps it at every other site.
        let mut seen = SeenMatches::new(5);
        assert!(seen.insert(key(1), 10));
        assert!(!seen.insert(key(1), 10), "a live repeat is rejected");
        seen.expire(15);
        assert!(seen.contains(&key(1)));
        assert!(!seen.insert(key(1), 10));
        seen.expire(16);
        assert!(!seen.contains(&key(1)));
        assert!(seen.insert(key(1), 10), "accepted again once expired");
    }

    #[test]
    fn seen_matches_window_zero_forgets_once_the_watermark_moves_on() {
        let mut seen = SeenMatches::new(0);
        assert!(seen.insert(key(1), 10));
        seen.expire(10);
        assert!(!seen.insert(key(1), 10));
        seen.expire(11);
        assert!(seen.insert(key(1), 10));
    }

    #[test]
    fn seen_matches_unbounded_window_never_forgets() {
        let mut seen = SeenMatches::new(u64::MAX);
        assert!(seen.insert(key(1), 0));
        assert!(seen.insert(key(2), u64::MAX));
        for watermark in [1, u64::MAX / 2, u64::MAX] {
            seen.expire(watermark);
            assert!(!seen.insert(key(1), 0));
            assert!(!seen.insert(key(2), u64::MAX));
        }
        assert_eq!(seen.keys.len(), 2);
    }

    #[test]
    fn seen_matches_drops_expired_keys_within_two_windows() {
        let mut seen = SeenMatches::new(10);
        for ts in 0..100 {
            seen.insert(key(ts), ts);
            seen.expire(ts);
            assert!(seen.keys.len() <= 22, "{} keys at {ts}", seen.keys.len());
        }
        seen.expire(1_000);
        assert!(seen.keys.is_empty());
    }

    #[test]
    fn binding_extremes() {
        let b = Binding::Many(vec![ev(0, 3, 0, 0), ev(0, 7, 1, 0)]);
        assert_eq!(b.min_ts(), 3);
        assert_eq!(b.max_ts(), 7);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn display_compact() {
        let m = mk(vec![(0, Binding::One(ev(0, 1, 4, 1)))]);
        assert_eq!(m.to_string(), "{e0=[#4]}");
    }
}
