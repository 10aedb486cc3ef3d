//! The instance-based tree engine (Section 2.3, after ZStream [35]).
//!
//! The engine follows a [`TreePlan`]: events are routed to the leaves, and
//! partial matches climb towards the root. Per the paper's modification of
//! ZStream from batch iteration to arbitrary time windows, a separate
//! instance is kept for every currently viable partial match: whenever a
//! new instance is created at a node, it is combined with the instances
//! stored at the *sibling* node, producing new instances at the parent —
//! a symmetric-join discipline that counts every pair exactly once.
//!
//! The sibling store is not scanned whole when the parent node joins its
//! children through an equality predicate. For each internal node the
//! engine picks, once at construction, the first `==` predicate (in
//! predicate order) between a non-Kleene element of the left subtree and
//! a non-Kleene element of the right subtree. Both children then keep
//! *keyed sibling stores* ([`NodeStore`]): instances are bucketed by the
//! [`index_key`](cep_core::value::index_key) of their own side's
//! attribute, and a new instance probes only the sibling bucket with its
//! own key. Every candidate still passes the full merge check, so output
//! is unchanged; the work per new instance follows the matching siblings
//! rather than all stored ones — the `PM(L)·PM(R)·sel` of the paper's
//! `Cost_tree` instead of `PM(L)·PM(R)`. Nodes without such a predicate,
//! and Kleene leaves, keep one flat store.

use crate::store::NodeStore;
use cep_core::buffer::TypeBuffers;
use cep_core::compile::CompiledPattern;
use cep_core::compiled::PredicateProgram;
use cep_core::engine::{Engine, EngineConfig};
use cep_core::error::CepError;
use cep_core::event::{EventRef, Timestamp, TypeId};
use cep_core::instance::{
    compatible_with, contiguity_ok, forget_consumed, merge_compatible_with, Instance, InstanceArena,
};
use cep_core::matches::Match;
use cep_core::metrics::EngineMetrics;
use cep_core::negation::DeferredStore;
use cep_core::plan::{TreeNode, TreePlan};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A flattened tree-plan node.
#[derive(Debug, Clone)]
enum NodeKind {
    Leaf { elem: usize },
    Internal { left: usize, right: usize },
}

#[derive(Debug, Clone)]
struct NodeSpec {
    kind: NodeKind,
    parent: Option<usize>,
    sibling: Option<usize>,
}

/// Tree-based (ZStream-style) evaluation engine.
pub struct TreeEngine {
    cp: CompiledPattern,
    cfg: EngineConfig,
    /// Compiled predicate program (`None` = interpreted evaluation).
    program: Option<Arc<PredicateProgram>>,
    nodes: Vec<NodeSpec>,
    root: usize,
    /// Leaf nodes per accepted event type.
    leaves: HashMap<TypeId, Arc<[usize]>>,
    /// Instances stored at each node, within the window.
    stores: Vec<NodeStore>,
    arena: InstanceArena,
    /// Buffered events of negated types (for negation checks only; positive
    /// events live in the leaf stores).
    buffers: TypeBuffers,
    deferred: DeferredStore,
    consumed: HashSet<u64>,
    watermark: Timestamp,
    events_since_prune: u64,
    metrics: EngineMetrics,
}

impl TreeEngine {
    /// Builds an engine for one compiled pattern branch and a tree plan.
    ///
    /// When [`EngineConfig::compiled_predicates`] is set (the default) the
    /// pattern's predicates are lowered into a [`PredicateProgram`] here;
    /// use [`TreeEngine::with_program`] to supply an already-compiled
    /// (cached) program instead.
    pub fn new(
        cp: CompiledPattern,
        plan: TreePlan,
        cfg: EngineConfig,
    ) -> Result<TreeEngine, CepError> {
        TreeEngine::with_program(cp, plan, cfg, None)
    }

    /// [`TreeEngine::new`] with an optional pre-compiled program (typically
    /// from a [`cep_core::compiled::PlanCache`]), avoiding recompilation.
    /// With `compiled_predicates` disabled in `cfg`, the program is ignored
    /// and the engine interprets predicates — the config toggle wins so the
    /// interpreted baseline stays measurable.
    pub fn with_program(
        cp: CompiledPattern,
        plan: TreePlan,
        cfg: EngineConfig,
        program: Option<Arc<PredicateProgram>>,
    ) -> Result<TreeEngine, CepError> {
        plan.validate(&cp)?;
        let program = if cfg.compiled_predicates {
            program.or_else(|| Some(Arc::new(PredicateProgram::compile(&cp))))
        } else {
            None
        };
        let mut nodes = Vec::new();
        let root = flatten(&plan.root, &mut nodes);
        // Fill parent/sibling links.
        for i in 0..nodes.len() {
            if let NodeKind::Internal { left, right } = nodes[i].kind {
                nodes[left].parent = Some(i);
                nodes[left].sibling = Some(right);
                nodes[right].parent = Some(i);
                nodes[right].sibling = Some(left);
            }
        }
        let mut leaves: HashMap<TypeId, Vec<usize>> = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if let NodeKind::Leaf { elem } = node.kind {
                leaves
                    .entry(cp.elements[elem].event_type)
                    .or_default()
                    .push(i);
            }
        }
        let stores = store_keys(&cp, &nodes)
            .into_iter()
            .map(NodeStore::new)
            .collect();
        Ok(TreeEngine {
            leaves: leaves.into_iter().map(|(t, l)| (t, l.into())).collect(),
            cp,
            cfg,
            program,
            nodes,
            root,
            stores,
            arena: InstanceArena::new(),
            buffers: TypeBuffers::new(),
            deferred: DeferredStore::new(),
            consumed: HashSet::new(),
            watermark: 0,
            events_since_prune: 0,
            metrics: EngineMetrics::new(),
        })
    }

    /// Convenience constructor using the left-deep tree over specification
    /// order.
    pub fn with_trivial_plan(cp: CompiledPattern, cfg: EngineConfig) -> TreeEngine {
        let plan = TreePlan::left_deep(&cep_core::plan::OrderPlan::trivial(&cp));
        TreeEngine::new(cp, plan, cfg).expect("trivial plan always fits")
    }

    fn live_instances(&self) -> usize {
        self.stores.iter().map(NodeStore::len).sum::<usize>() + self.deferred.len()
    }

    /// The compiled predicate program driving this engine (`None` when
    /// interpreting).
    pub fn program(&self) -> Option<&Arc<PredicateProgram>> {
        self.program.as_ref()
    }

    /// Arena statistics: `(instances derived, shells reused)`.
    pub fn arena_stats(&self) -> (u64, u64) {
        (self.arena.allocs(), self.arena.reuses())
    }

    fn emit(&mut self, m: Match, out: &mut Vec<Match>) {
        if self.cp.strategy.consumes() {
            if m.events().any(|e| self.consumed.contains(&e.seq)) {
                return;
            }
            for e in m.events() {
                self.consumed.insert(e.seq);
            }
            let consumed = &self.consumed;
            for store in &mut self.stores {
                store.retain(&mut self.arena, |i| !i.intersects(consumed));
            }
        }
        self.metrics.matches_emitted += 1;
        out.push(m);
    }

    fn release_deferred(&mut self, watermark: Timestamp, out: &mut Vec<Match>) {
        if self.cp.negated.is_empty() {
            return;
        }
        let mut ready = Vec::new();
        self.deferred.drain_ready(watermark, &mut ready);
        for m in ready {
            self.emit(m, out);
        }
    }

    fn finalize(&mut self, inst: Instance, out: &mut Vec<Match>) {
        if !contiguity_ok(&self.cp, &inst) {
            return;
        }
        let m = Match {
            bindings: inst
                .bindings
                .into_iter()
                .enumerate()
                .map(|(i, b)| {
                    (
                        self.cp.elements[i].position,
                        b.expect("root instances bind every element"),
                    )
                })
                .collect(),
            last_ts: inst.max_ts,
            emitted_at: self.watermark,
        };
        if self.cp.negated.is_empty() {
            self.emit(m, out);
            return;
        }
        if let Some(m) = self
            .deferred
            .admit(&self.cp, m, self.watermark, &self.buffers)
        {
            self.emit(m, out);
        }
    }

    /// A freshly created instance at `node` combines with the sibling store
    /// and recurses upward; at the root it becomes a match.
    fn propagate(&mut self, node: usize, inst: Instance, out: &mut Vec<Match>) {
        self.metrics.partial_matches_created += 1;
        if node == self.root {
            // Root instances are full matches; nothing joins against them.
            self.finalize(inst, out);
            return;
        }
        let parent = self.nodes[node].parent.expect("non-root has a parent");
        let sibling = self.nodes[node].sibling.expect("non-root has a sibling");
        let slot = self.stores[node].slot_of(&inst);
        self.stores[node].insert(&slot, inst.clone());
        // Symmetric join with the sibling's current store: every (new, old)
        // pair is considered exactly once, at the newer side's creation.
        // Siblings are keyed alike, so the instance's own slot names the
        // sibling bucket that can hold its join partners.
        let merged: Vec<Instance> = {
            let cp = &self.cp;
            let prog = self.program.as_deref();
            let consumed = &self.consumed;
            let metrics = &mut self.metrics;
            let arena = &mut self.arena;
            self.stores[sibling]
                .probe(&slot)
                .iter()
                .filter(|s| merge_compatible_with(cp, prog, &inst, s, consumed, metrics))
                .map(|s| arena.merge(&inst, s))
                .collect()
        };
        for m in merged {
            self.propagate(parent, m, out);
        }
    }

    /// Handles an event arriving at a leaf.
    fn leaf_arrival(&mut self, leaf: usize, event: &EventRef, out: &mut Vec<Match>) {
        let elem = match self.nodes[leaf].kind {
            NodeKind::Leaf { elem } => elem,
            NodeKind::Internal { .. } => unreachable!("leaf_arrival on internal node"),
        };
        let empty = Instance::empty(self.cp.n());
        if !compatible_with(
            &self.cp,
            self.program.as_deref(),
            &empty,
            elem,
            event,
            &self.consumed,
            &mut self.metrics,
        ) {
            return;
        }
        if self.cp.elements[elem].kleene {
            // Grow every stored accumulator (gated by serial number so each
            // subset appears exactly once), then seed the singleton set.
            let grown: Vec<Instance> = {
                let cp = &self.cp;
                let prog = self.program.as_deref();
                let cfg = &self.cfg;
                let consumed = &self.consumed;
                let metrics = &mut self.metrics;
                let arena = &mut self.arena;
                self.stores[leaf]
                    .flat()
                    .iter()
                    .filter(|i| {
                        event.seq >= i.kl_gate
                            && i.kleene_len(elem) < cfg.max_kleene_events
                            && compatible_with(cp, prog, i, elem, event, consumed, metrics)
                    })
                    .map(|i| arena.with_kleene(i, elem, event.clone()))
                    .collect()
            };
            for g in grown {
                self.propagate(leaf, g, out);
            }
            let seed = self.arena.with_kleene(&empty, elem, event.clone());
            self.propagate(leaf, seed, out);
        } else {
            let seed = self.arena.with_single(&empty, elem, event.clone());
            self.propagate(leaf, seed, out);
        }
    }

    fn prune(&mut self) {
        let watermark = self.watermark;
        let window = self.cp.window;
        self.buffers.prune(watermark, window);
        for store in &mut self.stores {
            store.retain(&mut self.arena, |i| !i.expired(watermark, window));
        }
        if !self.consumed.is_empty() {
            let held = self
                .stores
                .iter()
                .flat_map(NodeStore::iter)
                .map(|i| i.min_seq);
            forget_consumed(
                &mut self.consumed,
                held.chain(self.buffers.min_seq())
                    .chain(self.deferred.min_seq()),
            );
        }
    }
}

/// The key of every node's store: for each internal node, the first `==`
/// predicate (in predicate order) joining a non-Kleene element of its
/// left subtree to a non-Kleene element of its right subtree keys both
/// children, each by its own side's `(element, attribute)`.
fn store_keys(cp: &CompiledPattern, nodes: &[NodeSpec]) -> Vec<Option<(usize, usize)>> {
    // Children precede their parent in `nodes` (post-order flattening).
    let mut elems: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut keys = vec![None; nodes.len()];
    for node in nodes {
        let (left, right) = match node.kind {
            NodeKind::Leaf { elem } => {
                elems.push(vec![elem]);
                continue;
            }
            NodeKind::Internal { left, right } => (left, right),
        };
        let joinable =
            |side: usize, elem: usize| !cp.elements[elem].kleene && elems[side].contains(&elem);
        let join = cp.eq_joins().find_map(|j| {
            if joinable(left, j.elem) && joinable(right, j.other) {
                Some(j)
            } else if joinable(right, j.elem) && joinable(left, j.other) {
                Some(j.flipped())
            } else {
                None
            }
        });
        if let Some(j) = join {
            keys[left] = Some((j.elem, j.attr));
            keys[right] = Some((j.other, j.other_attr));
        }
        let merged = [elems[left].as_slice(), elems[right].as_slice()].concat();
        elems.push(merged);
    }
    keys
}

fn flatten(node: &TreeNode, out: &mut Vec<NodeSpec>) -> usize {
    match node {
        TreeNode::Leaf(elem) => {
            out.push(NodeSpec {
                kind: NodeKind::Leaf { elem: *elem },
                parent: None,
                sibling: None,
            });
            out.len() - 1
        }
        TreeNode::Node(l, r) => {
            let li = flatten(l, out);
            let ri = flatten(r, out);
            out.push(NodeSpec {
                kind: NodeKind::Internal {
                    left: li,
                    right: ri,
                },
                parent: None,
                sibling: None,
            });
            out.len() - 1
        }
    }
}

impl Engine for TreeEngine {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.metrics.events_processed += 1;
        self.watermark = self.watermark.max(event.ts);
        let watermark = self.watermark;
        self.release_deferred(watermark, out);
        if !self.cp.negated.is_empty() {
            self.deferred.on_event(&self.cp, event);
            if self.cp.negated_of_type(event.type_id).next().is_some() {
                self.buffers.push(event.clone());
            }
        }
        self.events_since_prune += 1;
        if self.events_since_prune >= self.cfg.prune_every {
            self.events_since_prune = 0;
            self.prune();
        }
        if !self.cp.uses_type(event.type_id) {
            return;
        }
        self.metrics.events_relevant += 1;
        // Route to every leaf accepting this type.
        if let Some(leaves) = self.leaves.get(&event.type_id).cloned() {
            for &leaf in leaves.iter() {
                self.leaf_arrival(leaf, event, out);
            }
        }
        self.metrics
            .record_live(self.live_instances(), self.buffers.len());
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.release_deferred(Timestamp::MAX, out);
    }

    fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}
