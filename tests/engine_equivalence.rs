//! Property-based cross-backend conformance: for random patterns and
//! random streams, every production backend — the lazy NFA (under a
//! random order plan), the tree engine (under a random tree plan), and
//! the delta-indexed engine — must emit output byte-identical
//! (signatures *and* `emitted_at`) to the naive exhaustive oracle. This
//! is the load-bearing correctness property behind the whole evaluation —
//! Section 2.2's claim that "all (n!) NFAs track the exact same
//! pattern", extended to tree plans and the non-materializing backend.
//!
//! The harness itself lives in [`cep::conformance`]; this suite draws
//! the random cases and fixtures through it, so any future backend added
//! to [`cep::conformance::standard_backends`] inherits the full sweep.

use cep::conformance::{
    build_pattern, check_equivalence, check_equivalence_under, check_stream_under, keyed,
    signatures, PatternSpec,
};
use cep::core::compile::CompiledPattern;
use cep::core::engine::{run_to_completion, EngineConfig};
use cep::core::event::{Event, TypeId};
use cep::core::naive::NaiveEngine;
use cep::core::pattern::PatternBuilder;
use cep::core::plan::{OrderPlan, TreeNode, TreePlan};
use cep::core::predicate::{CmpOp, Predicate};
use cep::core::selection::SelectionStrategy;
use cep::core::stream::StreamBuilder;
use cep::core::value::Value;
use cep::delta::DeltaEngine;
use cep::nfa::NfaEngine;
use cep::tree::TreeEngine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    #[test]
    fn pure_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 2..=4),
        preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=3),
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 10..=45),
        seed in any::<u64>(),
        window in 4u64..14,
    ) {
        let spec = PatternSpec {
            is_seq,
            elements: types.into_iter().map(|t| (t, 0)).collect(),
            predicates: preds,
            window,
        };
        check_equivalence(spec, raw, seed);
    }

    #[test]
    fn negation_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 3..=4),
        neg_at in 0usize..4,
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 10..=35),
        seed in any::<u64>(),
        window in 4u64..12,
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        let k = neg_at % elements.len();
        elements[k].1 = 1;
        let spec = PatternSpec { is_seq, elements, predicates: vec![], window };
        check_equivalence(spec, raw, seed);
    }

    #[test]
    fn kleene_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 2..=3),
        kl_at in 0usize..3,
        preds in prop::collection::vec((0usize..3, 0usize..3, 0u8..8), 0..=2),
        raw in prop::collection::vec((0u32..5, 1u8..4, -3i8..4), 8..=25),
        seed in any::<u64>(),
        window in 4u64..10,
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        let k = kl_at % elements.len();
        elements[k].1 = 2;
        let spec = PatternSpec { is_seq, elements, predicates: preds, window };
        check_equivalence(spec, raw, seed);
    }

    #[test]
    fn contiguity_patterns_equivalent(
        types in prop::collection::vec(0u32..3, 2..=3),
        raw in prop::collection::vec((0u32..4, 0u8..3, -3i8..4), 10..=30),
        seed in any::<u64>(),
    ) {
        let spec = PatternSpec {
            is_seq: true,
            elements: types.into_iter().map(|t| (t, 0)).collect(),
            predicates: vec![],
            window: 8,
        };
        check_equivalence_under(spec, raw, seed, SelectionStrategy::StrictContiguity);
    }

    /// Equality-join sweep under all three exact strategies: two chained
    /// `==` predicates `e_i == e_{i+1} == e_{i+2}` (so bushy tree plans key
    /// internal nodes, not only leaf pairs), with an optional negated or
    /// Kleene element that a join may touch. The narrow attribute domain
    /// (-2..3) makes `==` hits likely, exercising the delta engine's
    /// posting-list probes and the tree engine's keyed sibling stores.
    #[test]
    fn eq_join_patterns_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..3, 2..=4),
        join_at in 0usize..4,
        flag_at in 0usize..4,
        flag in 0u8..3,
        raw in prop::collection::vec((0u32..4, 0u8..3, -2i8..3), 10..=35),
        seed in any::<u64>(),
        window in 4u64..12,
    ) {
        let n = types.len();
        let mut elements: Vec<(u32, u8)> = types.iter().map(|&t| (t, 0)).collect();
        elements[flag_at % n].1 = flag;
        let Some(mut pattern) = build_pattern(&PatternSpec {
            is_seq,
            elements,
            predicates: vec![],
            window,
        }) else { return Ok(()); };
        let prims = pattern.primitives();
        for k in 0..2 {
            let (i, j) = ((join_at + k) % n, (join_at + k + 1) % n);
            if i != j {
                let (pi, pj) = (prims[i].position, prims[j].position);
                pattern
                    .predicates
                    .push(Predicate::attr_cmp(pi, 0, CmpOp::Eq, pj, 0));
            }
        }
        let stream = cep::conformance::build_stream(&raw);
        let cfg = EngineConfig { max_kleene_events: 4, ..Default::default() };
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            pattern.strategy = strategy;
            let Ok(cp) = CompiledPattern::compile_single(&pattern) else { return Ok(()); };
            check_stream_under(&cp, &stream, &cfg, seed, &format!("{pattern} ({strategy:?})"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
    })]

    /// The randomized differential sweep: queries drawn with negation and
    /// Kleene operators (possibly both), random predicates, and random
    /// windows, checked under **all three exact selection strategies** —
    /// 64 cases × 3 strategies = 192 query evaluations per run, each
    /// asserting NFA (random order plan), tree (random tree plan), the
    /// delta-indexed engine, and the naive exhaustive oracle emit
    /// byte-identical match streams.
    #[test]
    fn mixed_negation_kleene_equivalent_under_all_exact_strategies(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 3..=4),
        neg_at in 0usize..4,
        kl_at in 0usize..4,
        with_neg in any::<bool>(),
        with_kl in any::<bool>(),
        preds in prop::collection::vec((0usize..4, 0usize..4, 0u8..8), 0..=2),
        raw in prop::collection::vec((0u32..5, 1u8..4, -3i8..4), 8..=28),
        seed in any::<u64>(),
        window in 4u64..10,
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        if with_neg {
            let k = neg_at % elements.len();
            elements[k].1 = 1;
        }
        if with_kl {
            let k = kl_at % elements.len();
            if elements[k].1 == 0 {
                elements[k].1 = 2;
            }
        }
        let spec = PatternSpec { is_seq, elements, predicates: preds, window };
        for strategy in [
            SelectionStrategy::SkipTillAnyMatch,
            SelectionStrategy::StrictContiguity,
            SelectionStrategy::PartitionContiguity,
        ] {
            check_equivalence_under(spec.clone(), raw.clone(), seed, strategy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 200,
    })]

    /// Boundary windows: `u64::MAX` (nothing ever expires; `ts + window`
    /// must not overflow) and 0 (only same-timestamp events combine —
    /// reachable through a directly compiled pattern, since the pattern
    /// builder rejects it), with negation possibly present, under the
    /// exact strategies.
    #[test]
    fn boundary_windows_equivalent(
        is_seq in any::<bool>(),
        types in prop::collection::vec(0u32..4, 2..=3),
        neg_at in 0usize..3,
        with_neg in any::<bool>(),
        preds in prop::collection::vec((0usize..3, 0usize..3, 0u8..8), 0..=2),
        raw in prop::collection::vec((0u32..5, 0u8..4, -3i8..4), 8..=30),
        seed in any::<u64>(),
        unbounded in any::<bool>(),
        strict in any::<bool>(),
    ) {
        let mut elements: Vec<(u32, u8)> = types.into_iter().map(|t| (t, 0)).collect();
        if with_neg {
            let k = neg_at % elements.len();
            elements[k].1 = 1;
        }
        let window = if unbounded { u64::MAX } else { 0 };
        let spec = PatternSpec { is_seq, elements, predicates: preds, window: 1 };
        let Some(mut pattern) = build_pattern(&spec) else { return Ok(()); };
        pattern.strategy = if strict {
            SelectionStrategy::StrictContiguity
        } else {
            SelectionStrategy::SkipTillAnyMatch
        };
        let Ok(mut cp) = CompiledPattern::compile_single(&pattern) else { return Ok(()); };
        cp.window = window;
        let stream = cep::conformance::build_stream(&raw);
        let cfg = EngineConfig { max_kleene_events: 4, ..Default::default() };
        check_stream_under(&cp, &stream, &cfg, seed, &format!("{pattern} (window {window})"));
    }
}

/// An unbounded window keeps every pair: `SEQ(a, b)` over 200 alternating
/// a/b events finds all 20 100 ordered pairs on every backend — the same
/// count a window spanning the whole stream gives.
#[test]
fn unbounded_window_keeps_every_pair() {
    let mut sb = StreamBuilder::new();
    for i in 0..400u64 {
        sb.push(Event::new(
            TypeId((i % 2) as u32),
            i * 2,
            vec![Value::Int(0)],
        ));
    }
    let stream = sb.build();
    let count = |window: u64| {
        let mut b = PatternBuilder::new(window);
        let a = b.event(TypeId(0), "a");
        let c = b.event(TypeId(1), "b");
        let cp = CompiledPattern::compile_single(&b.seq([a, c]).unwrap()).unwrap();
        check_stream_under(&cp, &stream, &EngineConfig::default(), 7, "SEQ(a, b)");
        let mut oracle = NaiveEngine::new(cp, EngineConfig::default());
        run_to_completion(&mut oracle, &stream, false).match_count
    };
    assert_eq!(count(2_000), 20_100);
    assert_eq!(count(u64::MAX), 20_100);
}

/// Equality joins follow `Value` equality, not representation: `Int(1)`
/// joins `Float(1.0)` and `-0.0` joins `0.0`, while `NaN` and a missing
/// attribute join nothing — on every backend, and in the tree engine under
/// random tree plans whose keyed sibling stores bucket by these values.
#[test]
fn eq_joins_follow_value_equality_on_every_plan() {
    let mut b = PatternBuilder::new(100);
    let a = b.event(TypeId(0), "a");
    let bb = b.event(TypeId(1), "b");
    let c = b.event(TypeId(2), "c");
    b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Eq, bb.pos(), 0));
    b.predicate(Predicate::attr_cmp(bb.pos(), 0, CmpOp::Eq, c.pos(), 0));
    let cp = CompiledPattern::compile_single(&b.seq([a, bb, c]).unwrap()).unwrap();
    let triples: [[Option<Value>; 3]; 6] = [
        [
            Some(Value::Int(1)),
            Some(Value::Float(1.0)),
            Some(Value::Int(1)),
        ],
        [
            Some(Value::Float(-0.0)),
            Some(Value::Int(0)),
            Some(Value::Float(0.0)),
        ],
        [
            Some(Value::Float(f64::NAN)),
            Some(Value::Float(f64::NAN)),
            Some(Value::Float(f64::NAN)),
        ],
        [None, None, None],
        [Some(Value::Float(f64::NAN)), None, Some(Value::Int(7))],
        [Some(Value::Int(0)), Some(Value::Float(f64::NAN)), None],
    ];
    let mut sb = StreamBuilder::new();
    let mut ts = 0;
    for triple in triples {
        for (ty, value) in triple.into_iter().enumerate() {
            ts += 1;
            sb.push(Event::new(
                TypeId(ty as u32),
                ts,
                value.into_iter().collect(),
            ));
        }
    }
    let stream = sb.build();
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected = signatures(&run_to_completion(&mut oracle, &stream, true).matches);
    // Exactly the two cross-representation triples (serials 0-2 and 3-5).
    assert_eq!(
        expected
            .iter()
            .map(|k| k
                .iter()
                .flat_map(|(_, serials)| serials.to_vec())
                .collect::<Vec<u64>>())
            .collect::<Vec<_>>(),
        vec![vec![0, 1, 2], vec![3, 4, 5]]
    );
    for seed in 0..24 {
        check_stream_under(
            &cp,
            &stream,
            &EngineConfig::default(),
            seed,
            "SEQ(a, b, c) a==b==c",
        );
    }
}

/// Regression fixture: the paper's four-camera pattern on a crafted stream,
/// checked across all 24 plan orders, a bushy tree, and the delta engine.
#[test]
fn four_cameras_all_plans_agree() {
    let mut b = PatternBuilder::new(50);
    let a = b.event(TypeId(0), "a");
    let bb = b.event(TypeId(1), "b");
    let c = b.event(TypeId(2), "c");
    let d = b.event(TypeId(3), "d");
    for (x, y) in [(a, bb), (bb, c), (c, d)] {
        b.predicate(Predicate::attr_cmp(x.pos(), 0, CmpOp::Eq, y.pos(), 0));
    }
    let pattern = b.seq([a, bb, c, d]).unwrap();
    let cp = CompiledPattern::compile_single(&pattern).unwrap();

    let mut sb = StreamBuilder::new();
    let mut ts = 0;
    for vehicle in 0..6i64 {
        for cam in 0..4u32 {
            ts += 2;
            if cam < 3 || vehicle % 2 == 0 {
                sb.push(Event::new(TypeId(cam), ts, vec![Value::Int(vehicle)]));
            }
        }
    }
    let stream = sb.build();
    let mut oracle = NaiveEngine::new(cp.clone(), EngineConfig::default());
    let expected = keyed(&run_to_completion(&mut oracle, &stream, true).matches);
    assert!(!expected.is_empty(), "fixture must produce matches");

    for compiled in [false, true] {
        let cfg = EngineConfig {
            compiled_predicates: compiled,
            ..Default::default()
        };
        // All 24 orders.
        for p0 in 0..4usize {
            for p1 in 0..4usize {
                for p2 in 0..4usize {
                    let mut full: Vec<usize> = Vec::new();
                    for x in [p0, p1, p2] {
                        if !full.contains(&x) {
                            full.push(x);
                        }
                    }
                    for x in 0..4 {
                        if !full.contains(&x) {
                            full.push(x);
                        }
                    }
                    let plan = OrderPlan::new(full).unwrap();
                    let mut e = NfaEngine::new(cp.clone(), plan, cfg.clone()).unwrap();
                    assert_eq!(
                        keyed(&run_to_completion(&mut e, &stream, true).matches),
                        expected
                    );
                }
            }
        }
        // A bushy tree plan.
        let tree = TreePlan::new(TreeNode::join(
            TreeNode::join(TreeNode::Leaf(3), TreeNode::Leaf(2)),
            TreeNode::join(TreeNode::Leaf(1), TreeNode::Leaf(0)),
        ))
        .unwrap();
        let mut te = TreeEngine::new(cp.clone(), tree, cfg.clone()).unwrap();
        assert_eq!(
            keyed(&run_to_completion(&mut te, &stream, true).matches),
            expected
        );
        // The plan-free delta backend.
        let mut de = DeltaEngine::new(cp.clone(), cfg);
        let r = run_to_completion(&mut de, &stream, true);
        assert_eq!(keyed(&r.matches), expected);
        assert_eq!(
            r.metrics.partial_matches_created, 0,
            "delta must not materialize partial matches"
        );
        assert_eq!(signatures(&r.matches).len(), expected.len());
    }
}
