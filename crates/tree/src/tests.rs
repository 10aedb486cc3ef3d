//! Oracle-equivalence and plan-quality tests for the tree engine.

use crate::TreeEngine;
use cep_core::compile::CompiledPattern;
use cep_core::engine::{run_to_completion, EngineConfig};
use cep_core::event::{Event, TypeId};
use cep_core::matches::{signatures, validate_match};
use cep_core::naive::NaiveEngine;
use cep_core::pattern::{Pattern, PatternBuilder};
use cep_core::plan::{OrderPlan, TreeNode, TreePlan};
use cep_core::predicate::{CmpOp, Predicate};
use cep_core::selection::SelectionStrategy;
use cep_core::stream::StreamBuilder;
use cep_core::value::Value;

fn t(i: u32) -> TypeId {
    TypeId(i)
}

fn ev(tid: u32, ts: u64, x: i64) -> Event {
    Event::new(t(tid), ts, vec![Value::Int(x)])
}

fn stream(events: Vec<Event>) -> Vec<cep_core::event::EventRef> {
    let mut b = StreamBuilder::new();
    for e in events {
        b.push(e);
    }
    b.build()
}

/// Every binary tree shape over every leaf permutation of `n` elements.
fn all_trees(n: usize) -> Vec<TreeNode> {
    fn shapes(leaves: &[usize]) -> Vec<TreeNode> {
        if leaves.len() == 1 {
            return vec![TreeNode::Leaf(leaves[0])];
        }
        let mut out = Vec::new();
        for split in 1..leaves.len() {
            for l in shapes(&leaves[..split]) {
                for r in shapes(&leaves[split..]) {
                    out.push(TreeNode::join(l.clone(), r));
                }
            }
        }
        out
    }
    fn perms(n: usize) -> Vec<Vec<usize>> {
        fn rec(rest: Vec<usize>, acc: Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if rest.is_empty() {
                out.push(acc);
                return;
            }
            for (i, &x) in rest.iter().enumerate() {
                let mut rest2 = rest.clone();
                rest2.remove(i);
                let mut acc2 = acc.clone();
                acc2.push(x);
                rec(rest2, acc2, out);
            }
        }
        let mut out = Vec::new();
        rec((0..n).collect(), Vec::new(), &mut out);
        out
    }
    let mut out = Vec::new();
    for p in perms(n) {
        out.extend(shapes(&p));
    }
    out
}

/// Runs the tree engine under every tree plan and asserts identical
/// results to the naive oracle.
fn assert_all_trees_match_oracle(pattern: &Pattern, events: Vec<Event>) {
    let cp = CompiledPattern::compile_single(pattern).unwrap();
    let s = stream(events);
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected = signatures(&run_to_completion(&mut oracle, &s, true).matches);
    for tree in all_trees(cp.n()) {
        let plan = TreePlan::new(tree.clone()).unwrap();
        let mut engine = TreeEngine::new(cp.clone(), plan, EngineConfig::default()).unwrap();
        let r = run_to_completion(&mut engine, &s, true);
        for m in &r.matches {
            validate_match(&cp, m).unwrap();
        }
        assert_eq!(
            signatures(&r.matches),
            expected,
            "tree {tree} disagrees with oracle"
        );
    }
}

#[test]
fn sequence_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, d.pos(), 0));
    let p = b.seq([a, c, d]).unwrap();
    let events = vec![
        ev(0, 1, 3),
        ev(1, 2, 0),
        ev(0, 3, 7),
        ev(2, 4, 5),
        ev(1, 5, 0),
        ev(2, 6, 9),
        ev(0, 7, 1),
        ev(2, 8, 2),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn conjunction_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(6);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Le, c.pos(), 0));
    let p = b.and([a, c, d]).unwrap();
    let events = vec![
        ev(2, 1, 0),
        ev(1, 2, 4),
        ev(0, 3, 4),
        ev(1, 4, 1),
        ev(0, 5, 9),
        ev(2, 6, 0),
        ev(0, 7, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn duplicate_types_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a1 = b.event(t(0), "a1");
    let a2 = b.event(t(0), "a2");
    let p = b.seq([a1, a2]).unwrap();
    assert_all_trees_match_oracle(&p, vec![ev(0, 1, 0), ev(0, 2, 0), ev(0, 3, 0)]);
}

#[test]
fn negation_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let nb = b.event(t(1), "nb");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, nb.pos(), 0));
    let ae = b.expr(a);
    let ne = b.not(nb);
    let ce = b.expr(c);
    let p = b.seq_exprs([ae, ne, ce]).unwrap();
    let events = vec![
        ev(0, 1, 1),
        ev(1, 2, 1),
        ev(0, 3, 2),
        ev(2, 4, 0),
        ev(1, 5, 2),
        ev(2, 6, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn trailing_negation_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(5);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let nb = b.event(t(2), "nb");
    let ae = b.expr(a);
    let ce = b.expr(c);
    let ne = b.not(nb);
    let p = b.seq_exprs([ae, ce, ne]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(2, 3, 0),
        ev(0, 10, 0),
        ev(1, 11, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn kleene_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    let a = b.event(t(0), "a");
    let k = b.event(t(1), "k");
    let c = b.event(t(2), "c");
    let ae = b.expr(a);
    let ke = b.kleene(k);
    let ce = b.expr(c);
    let p = b.seq_exprs([ae, ke, ce]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(1, 3, 0),
        ev(2, 4, 0),
        ev(1, 5, 0),
        ev(2, 6, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn strict_contiguity_all_trees_match_oracle() {
    let mut b = PatternBuilder::new(10);
    b.strategy(SelectionStrategy::StrictContiguity);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let p = b.seq([a, c]).unwrap();
    let events = vec![
        ev(0, 1, 0),
        ev(1, 2, 0),
        ev(0, 3, 0),
        ev(2, 4, 0),
        ev(1, 5, 0),
    ];
    assert_all_trees_match_oracle(&p, events);
}

#[test]
fn next_match_matches_are_disjoint() {
    let mut b = PatternBuilder::new(10);
    b.strategy(SelectionStrategy::SkipTillNextMatch);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let p = b.seq([a, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let s = stream(vec![ev(0, 1, 0), ev(0, 2, 0), ev(1, 3, 0), ev(1, 4, 0)]);
    let mut engine = TreeEngine::with_trivial_plan(cp.clone(), EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    let mut used = std::collections::HashSet::new();
    for m in &r.matches {
        for e in m.events() {
            assert!(used.insert(e.seq), "event reused under next-match");
        }
        validate_match(&cp, m).unwrap();
    }
    assert!(!r.matches.is_empty());
}

#[test]
fn nfa_and_tree_agree_on_random_streams() {
    // Cross-engine agreement without the oracle in the loop.
    use cep_nfa::NfaEngine;
    let mut b = PatternBuilder::new(12);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let d = b.event(t(2), "d");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Ne, c.pos(), 0));
    let p = b.seq([a, c, d]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    // Deterministic pseudo-random stream.
    let mut events = Vec::new();
    let mut state = 12345u64;
    for i in 0..120u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tid = (state >> 33) % 4;
        let x = ((state >> 20) % 5) as i64;
        events.push(ev(tid as u32, i, x));
    }
    let s = stream(events);
    let mut nfa = NfaEngine::new(
        cp.clone(),
        OrderPlan::new(vec![2, 0, 1]).unwrap(),
        EngineConfig::default(),
    )
    .unwrap();
    let nfa_res = run_to_completion(&mut nfa, &s, true);
    let tree = TreePlan::new(TreeNode::join(
        TreeNode::Leaf(1),
        TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(2)),
    ))
    .unwrap();
    let mut te = TreeEngine::new(cp.clone(), tree, EngineConfig::default()).unwrap();
    let tree_res = run_to_completion(&mut te, &s, true);
    assert_eq!(signatures(&nfa_res.matches), signatures(&tree_res.matches));
    assert!(
        !nfa_res.matches.is_empty(),
        "fixture should produce matches"
    );
}

#[test]
fn window_pruning_bounds_state() {
    let mut b = PatternBuilder::new(5);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "c");
    let p = b.seq([a, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut events = Vec::new();
    for i in 0..2000u64 {
        events.push(ev(0, i * 3, 0));
    }
    let s = stream(events);
    let mut engine = TreeEngine::with_trivial_plan(cp, EngineConfig::default());
    let r = run_to_completion(&mut engine, &s, true);
    assert!(
        r.metrics.peak_partial_matches < 70,
        "{}",
        r.metrics.peak_partial_matches
    );
    assert!(r.matches.is_empty());
}

#[test]
fn bushy_tree_beats_left_deep_on_selective_outer_pair() {
    // Figure 3's scenario: SEQ(A,B,C) with a highly selective predicate
    // between A and C. The ((A C) B) tree stores far fewer partial
    // matches than left-deep ((A B) C).
    let mut b = PatternBuilder::new(1000);
    let a = b.event(t(0), "a");
    let bb = b.event(t(1), "b");
    let c = b.event(t(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let p = b.seq([a, bb, c]).unwrap();
    let cp = CompiledPattern::compile_single(&p).unwrap();
    let mut events = Vec::new();
    let mut ts = 0u64;
    for i in 0..100i64 {
        events.push(ev(0, ts, i));
        ts += 1;
        events.push(ev(1, ts, i));
        ts += 1;
        events.push(ev(2, ts, i + 1_000_000)); // never equal to any a.x
        ts += 1;
    }
    let s = stream(events);
    let left_deep = TreePlan::new(TreeNode::join(
        TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(1)),
        TreeNode::Leaf(2),
    ))
    .unwrap();
    let bushy_ac = TreePlan::new(TreeNode::join(
        TreeNode::join(TreeNode::Leaf(0), TreeNode::Leaf(2)),
        TreeNode::Leaf(1),
    ))
    .unwrap();
    let mut e1 = TreeEngine::new(cp.clone(), left_deep, EngineConfig::default()).unwrap();
    let r1 = run_to_completion(&mut e1, &s, true);
    let mut e2 = TreeEngine::new(cp.clone(), bushy_ac, EngineConfig::default()).unwrap();
    let r2 = run_to_completion(&mut e2, &s, true);
    assert_eq!(signatures(&r1.matches), signatures(&r2.matches));
    assert!(
        r2.metrics.partial_matches_created < r1.metrics.partial_matches_created,
        "(a c) first: {} vs left-deep: {}",
        r2.metrics.partial_matches_created,
        r1.metrics.partial_matches_created
    );
}

#[test]
fn keyed_sibling_stores_bound_the_join_work() {
    // SEQ(A a, B b) WHERE a.k == b.k over 16 keys: the root joins the two
    // leaves through the equality, so each new instance may only meet the
    // sibling instances sharing its key. Every predicate evaluation must
    // therefore belong to an in-window, precedence-ordered (a, b) pair
    // with equal keys; a flat store evaluates about 16 times as many. The
    // key sits at a different attribute on each side (A: attribute 1,
    // B: attribute 0), next to an unrelated attribute of the same domain.
    let window = 40;
    let mut b = PatternBuilder::new(window);
    let a = b.event(t(0), "a");
    let c = b.event(t(1), "b");
    b.predicate(Predicate::attr_cmp(a.pos(), 1, CmpOp::Eq, c.pos(), 0));
    let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
    let mut events = Vec::new();
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for ts in 0..3000u64 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let ty = ((s >> 33) % 2) as u32;
        let (key, other) = (
            Value::Int(((s >> 40) % 16) as i64),
            Value::Int(((s >> 50) % 16) as i64),
        );
        let attrs = if ty == 0 {
            vec![other, key]
        } else {
            vec![key, other]
        };
        events.push(Event::new(t(ty), ts, attrs));
    }
    let pairs = events
        .iter()
        .filter(|e| e.type_id == t(1))
        .map(|eb| {
            events
                .iter()
                .filter(|ea| {
                    ea.type_id == t(0)
                        && ea.ts < eb.ts
                        && eb.ts - ea.ts <= window
                        && ea.attrs[1] == eb.attrs[0]
                })
                .count() as u64
        })
        .sum::<u64>();
    assert!(pairs > 1000, "fixture should join often: {pairs}");
    let s = stream(events);
    for compiled in [false, true] {
        let cfg = EngineConfig {
            compiled_predicates: compiled,
            ..EngineConfig::default()
        };
        let mut engine = TreeEngine::with_trivial_plan(cp.clone(), cfg);
        let r = run_to_completion(&mut engine, &s, true);
        assert_eq!(r.match_count as u64, pairs, "compiled={compiled}");
        assert!(
            r.metrics.predicate_evaluations <= pairs,
            "compiled={compiled}: {} evaluations for {pairs} equal-key pairs",
            r.metrics.predicate_evaluations
        );
    }
}
