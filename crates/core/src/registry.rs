//! Multi-query execution: a [`QueryRegistry`] runs many registered
//! queries over one stream, executing shared work once.
//!
//! Production CEP serves many users registering patterns over the *same*
//! streams. Registering N queries as N independent engines re-evaluates
//! every shared sub-pattern N times; the registry instead canonicalizes
//! each query's DNF branches by [`CompiledPattern::signature`] and keeps
//! one **fragment** (one engine) per distinct branch. A fragment shared
//! by several queries is evaluated once per event, and its matches fan
//! out to every subscribed query with per-query [`QueryId`] tagging —
//! the operator-sharing idea of Dossinger & Michel (arXiv:2104.07742)
//! and Valluri et al. (arXiv:cs/0202035) applied to compiled DNF
//! branches.
//!
//! Correctness contract: for every registered query, the registry's
//! tagged output is **byte-identical** — `(signature, emitted_at)` pairs
//! — to the union of what independent engines over the query's DNF
//! branches emit, keeping each signature's earliest emission. Two
//! mechanisms preserve it:
//!
//! * **Type routing.** An event is only offered to fragments whose
//!   pattern uses its type, *except* fragments with negated elements:
//!   deferred (trailing-negation) emission stamps `emitted_at` with the
//!   engine's watermark, which advances on every processed event, so
//!   those fragments receive the full stream.
//! * **Per-query fan-out dedup.** A query with multiple branches keeps
//!   the first sighting of each match key (branch order breaks ties
//!   within one event) in a [`SeenMatches`] memory, which forgets a key
//!   once it falls out of the query's window.
//!
//! The registry is the one place that unions a pattern's branches (the
//! paper's Section 5.4 evaluation of nested patterns): a disjunctive
//! pattern built through the facade runs as a *registry of one*
//! ([`QueryRegistry::of_query`]), which implements [`Engine`].
//!
//! Set-level planning: fragments are deduplicated by signature before
//! any engine is built (shared fragments are planned once), lowered
//! predicate programs are shared through the PR 8
//! [`PlanCache`](crate::compiled::PlanCache), and
//! [`QueryRegistry::set_plan`] reports the sharing structure —
//! including maximal shared SEQ prefixes detected by
//! [`prefix_signature`] — so a planner-backed [`FragmentBuilder`] can
//! align evaluation orders across fragments that share a prefix.

use crate::compile::CompiledPattern;
use crate::compiled::{fetch_program, shared_plan_cache, PredicateProgram, SharedPlanCache};
use crate::engine::{Engine, EngineConfig};
use crate::error::CepError;
use crate::event::{EventRef, Timestamp};
use crate::matches::{Match, SeenMatches};
use crate::metrics::EngineMetrics;
use crate::pattern::Pattern;
use cep_obs::{TraceRecord, Tracer};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Identifies a query registered with a [`QueryRegistry`]. Ids are
/// assigned sequentially and never reused, so an id stays unambiguous
/// across unregistrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Builds the engine for one distinct fragment (DNF branch).
///
/// The registry calls this exactly once per *distinct* branch signature
/// — this is where "shared fragments are planned once" lands: a
/// planner-backed implementation pays the planning cost once no matter
/// how many queries subscribe. `program` is the branch's lowered
/// predicate program from the registry's shared [`PlanCache`]
/// (`None` when compiled predicates are disabled); implementations
/// should thread it into the engine's `with_program` constructor.
///
/// [`PlanCache`]: crate::compiled::PlanCache
pub trait FragmentBuilder: Send + Sync {
    /// Builds a fresh engine evaluating `cp`.
    fn build_fragment(
        &self,
        cp: &CompiledPattern,
        program: Option<Arc<PredicateProgram>>,
    ) -> Result<Box<dyn Engine>, CepError>;
}

impl<F> FragmentBuilder for F
where
    F: Fn(&CompiledPattern, Option<Arc<PredicateProgram>>) -> Result<Box<dyn Engine>, CepError>
        + Send
        + Sync,
{
    fn build_fragment(
        &self,
        cp: &CompiledPattern,
        program: Option<Arc<PredicateProgram>>,
    ) -> Result<Box<dyn Engine>, CepError> {
        self(cp, program)
    }
}

/// Default capacity of a registry's shared predicate-program cache.
/// Larger than the facade's per-factory cache: a registry holds many
/// distinct fragments, not one pattern's branches.
const REGISTRY_PLAN_CACHE_CAP: usize = 256;

/// One distinct DNF branch under evaluation: one engine, shared by every
/// subscribed (query, branch) pair.
struct Fragment {
    cp: CompiledPattern,
    engine: Box<dyn Engine>,
    /// Live (query, branch) subscriptions; the fragment is torn down
    /// when this reaches zero.
    subscribers: usize,
    /// Whether the fragment must see every event regardless of type:
    /// true for patterns with negated elements, whose deferred-emission
    /// watermark advances on every processed event.
    route_all: bool,
    /// Per-event scratch buffer of freshly detected matches.
    staged: Vec<Match>,
}

/// One registered query: its branch subscriptions in branch order plus
/// the cross-branch dedup state for multi-branch queries.
struct QueryEntry {
    /// Fragment slot per DNF branch, in the pattern's branch order
    /// (duplicates allowed: identical branches subscribe twice).
    fragments: Vec<usize>,
    /// Match memory for multi-branch dedup (unused single-branch).
    seen: SeenMatches,
    /// Events offered to the registry while this query was live.
    events_processed: u64,
    /// Matches delivered to this query (post-dedup).
    matches_emitted: u64,
}

/// A multi-query engine: many registered queries over one stream, with
/// signature-deduplicated shared fragments executed once and per-query
/// fan-out. See the [module docs](self) for the sharing model and the
/// byte-identity contract.
pub struct QueryRegistry {
    builder: Arc<dyn FragmentBuilder>,
    config: EngineConfig,
    plan_cache: SharedPlanCache,
    tracer: Tracer,
    /// Fragment slots; `None` marks a retired slot (kept so stored slot
    /// indices stay stable).
    slots: Vec<Option<Fragment>>,
    by_sig: HashMap<u64, usize>,
    queries: BTreeMap<QueryId, QueryEntry>,
    next_id: u64,
    /// Registry-owned counters (`events_processed`, `wall_time_ns`,
    /// `registered_queries`, `shared_fragments`, `fanout_emits`); the
    /// rest of the exported view is absorbed from fragment engines.
    own: EngineMetrics,
    /// Final metrics of torn-down fragments (live-state gauges zeroed),
    /// so the aggregate view stays monotone across unregistrations.
    retired: EngineMetrics,
    /// The [`Engine::metrics`] view, computed on first read after any
    /// change rather than on every event.
    view: OnceCell<EngineMetrics>,
}

/// The fragment builder of a registry assembled from prebuilt engines
/// ([`QueryRegistry::of_query`]): there is no backend to build further
/// fragments with.
struct Prebuilt;

impl FragmentBuilder for Prebuilt {
    fn build_fragment(
        &self,
        _cp: &CompiledPattern,
        _program: Option<Arc<PredicateProgram>>,
    ) -> Result<Box<dyn Engine>, CepError> {
        Err(CepError::Plan(
            "this registry was assembled from prebuilt engines and cannot build \
             fragments for further queries"
                .into(),
        ))
    }
}

impl QueryRegistry {
    /// A registry building fragments with `builder` under `config`, with
    /// a fresh shared predicate-program cache.
    pub fn new(builder: Arc<dyn FragmentBuilder>, config: EngineConfig) -> QueryRegistry {
        Self::with_plan_cache(builder, config, shared_plan_cache(REGISTRY_PLAN_CACHE_CAP))
    }

    /// Like [`new`](QueryRegistry::new) but sharing an external plan
    /// cache — per-shard registry instances instantiated from one
    /// [`RegistrySpec`] lower each fragment's predicates only once
    /// across the whole fleet.
    pub fn with_plan_cache(
        builder: Arc<dyn FragmentBuilder>,
        config: EngineConfig,
        plan_cache: SharedPlanCache,
    ) -> QueryRegistry {
        QueryRegistry {
            builder,
            config,
            plan_cache,
            tracer: Tracer::disabled(),
            slots: Vec::new(),
            by_sig: HashMap::new(),
            queries: BTreeMap::new(),
            next_id: 0,
            own: EngineMetrics::new(),
            retired: EngineMetrics::new(),
            view: OnceCell::new(),
        }
    }

    /// A registry of one: the query whose DNF branches are `branches`,
    /// each paired with its already-built engine, registered as
    /// `QueryId(0)` under `window`. Its [`Engine`] output is that query's
    /// matches — the union of the branches' — which is how a disjunctive
    /// pattern runs as one engine. Branches with identical signatures
    /// share one fragment (the surplus engines are dropped). The registry
    /// has no fragment builder, so registering further queries fails.
    ///
    /// # Errors
    /// [`CepError::Pattern`] when `branches` is empty.
    pub fn of_query(
        branches: Vec<(CompiledPattern, Box<dyn Engine>)>,
        window: u64,
    ) -> Result<QueryRegistry, CepError> {
        let (cps, engines): (Vec<_>, Vec<_>) = branches.into_iter().unzip();
        let mut engines: Vec<Option<Box<dyn Engine>>> = engines.into_iter().map(Some).collect();
        let mut registry = QueryRegistry::new(Arc::new(Prebuilt), EngineConfig::default());
        registry.register_with(cps, window, |_, i, _| {
            Ok(engines[i].take().expect("one engine per branch"))
        })?;
        Ok(registry)
    }

    /// Routes registration/unregistration trace records to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Registers a pattern, compiling it to DNF branches first.
    pub fn register(&mut self, pattern: &Pattern) -> Result<QueryId, CepError> {
        let branches = CompiledPattern::compile(pattern)?;
        self.register_compiled(branches, pattern.window)
    }

    /// Registers a query from pre-compiled DNF branches sharing `window`.
    ///
    /// Branches that match an already-running fragment's signature
    /// subscribe to it; the rest get fresh engines from the
    /// [`FragmentBuilder`]. On error nothing is registered (engine
    /// builds happen before any registry state changes).
    pub fn register_compiled(
        &mut self,
        branches: Vec<CompiledPattern>,
        window: u64,
    ) -> Result<QueryId, CepError> {
        self.register_with(branches, window, |registry, _, cp| {
            let (program, hits, misses) = fetch_program(
                &registry.plan_cache,
                cp,
                registry.config.compiled_predicates,
            );
            let mut engine = registry.builder.build_fragment(cp, program)?;
            engine.metrics_mut().plan_cache_hits = hits;
            engine.metrics_mut().plan_cache_misses = misses;
            Ok(engine)
        })
    }

    /// Registration with a pluggable engine source: `build(self, i, cp)`
    /// supplies the engine for branch `i` when no live fragment already
    /// evaluates its signature.
    fn register_with(
        &mut self,
        branches: Vec<CompiledPattern>,
        window: u64,
        mut build: impl FnMut(&Self, usize, &CompiledPattern) -> Result<Box<dyn Engine>, CepError>,
    ) -> Result<QueryId, CepError> {
        if branches.is_empty() {
            return Err(CepError::Pattern(
                "cannot register a query with no DNF branches".into(),
            ));
        }
        self.view.take();
        // Phase 1 (fallible, no state changes): resolve each branch to an
        // existing slot or a freshly built engine. Duplicate branches
        // *within* this registration must also share one engine.
        enum Resolved {
            Existing(usize),
            New(usize /* index into `built` */),
        }
        let mut built: Vec<(CompiledPattern, Box<dyn Engine>)> = Vec::new();
        let mut new_sigs: HashMap<u64, usize> = HashMap::new();
        let mut resolved = Vec::with_capacity(branches.len());
        let mut shared = 0u64;
        for (i, cp) in branches.iter().enumerate() {
            let sig = cp.signature();
            if let Some(&slot) = self.by_sig.get(&sig) {
                resolved.push(Resolved::Existing(slot));
                shared += 1;
            } else if let Some(&bi) = new_sigs.get(&sig) {
                resolved.push(Resolved::New(bi));
                shared += 1;
            } else {
                let engine = build(self, i, cp)?;
                new_sigs.insert(sig, built.len());
                resolved.push(Resolved::New(built.len()));
                built.push((cp.clone(), engine));
            }
        }
        // Phase 2 (infallible): commit fragments and the query entry.
        let mut slot_of_built = vec![usize::MAX; built.len()];
        for (bi, (cp, engine)) in built.into_iter().enumerate() {
            let route_all = !cp.negated.is_empty();
            let fragment = Fragment {
                cp,
                engine,
                subscribers: 0,
                route_all,
                staged: Vec::new(),
            };
            let slot = match self.slots.iter().position(Option::is_none) {
                Some(free) => {
                    self.slots[free] = Some(fragment);
                    free
                }
                None => {
                    self.slots.push(Some(fragment));
                    self.slots.len() - 1
                }
            };
            self.by_sig.insert(
                self.slots[slot]
                    .as_ref()
                    .expect("just placed")
                    .cp
                    .signature(),
                slot,
            );
            slot_of_built[bi] = slot;
        }
        let fragments: Vec<usize> = resolved
            .iter()
            .map(|r| match r {
                Resolved::Existing(slot) => *slot,
                Resolved::New(bi) => slot_of_built[*bi],
            })
            .collect();
        for &slot in &fragments {
            self.slots[slot].as_mut().expect("live slot").subscribers += 1;
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let branch_count = fragments.len() as u64;
        self.queries.insert(
            id,
            QueryEntry {
                fragments,
                seen: SeenMatches::new(window),
                events_processed: 0,
                matches_emitted: 0,
            },
        );
        self.own.registered_queries += 1;
        self.own.shared_fragments += shared;
        let live = self.fragment_count() as u64;
        self.tracer.emit_with(|| TraceRecord::QueryRegistered {
            query_id: id.0,
            branches: branch_count,
            shared,
            fragments: live,
        });
        Ok(id)
    }

    /// Unregisters a query; fragments it was the last subscriber of are
    /// torn down (their final counters are folded into the registry
    /// aggregate). Returns `false` for unknown ids.
    pub fn unregister(&mut self, id: QueryId) -> bool {
        let Some(entry) = self.queries.remove(&id) else {
            return false;
        };
        self.view.take();
        let mut retired = 0u64;
        for slot in entry.fragments {
            let frag = self.slots[slot].as_mut().expect("subscribed slot is live");
            frag.subscribers -= 1;
            if frag.subscribers == 0 {
                let frag = self.slots[slot].take().expect("live slot");
                self.by_sig.remove(&frag.cp.signature());
                let mut last = frag.engine.metrics().clone();
                // The engine is gone: its live-state gauges must not
                // linger in the monotone aggregate.
                last.live_partial_matches = 0;
                last.buffered_events = 0;
                last.retained_events = 0;
                self.retired.absorb(&last);
                retired += 1;
            }
        }
        let live = self.fragment_count() as u64;
        self.tracer.emit_with(|| TraceRecord::QueryUnregistered {
            query_id: id.0,
            retired_fragments: retired,
            fragments: live,
        });
        true
    }

    /// Offers one event to every live fragment (each evaluated at most
    /// once, and only if the event's type is relevant to it — see the
    /// [module docs](self)) and fans freshly detected matches out to the
    /// subscribed queries, tagged with their [`QueryId`].
    pub fn process(&mut self, event: &EventRef, out: &mut Vec<(QueryId, Match)>) {
        self.offer(event);
        self.fan_out(Some(event.ts), |id, m| out.push((id, m)));
    }

    /// Flushes every fragment (releasing deferred trailing-negation
    /// matches) and fans the results out like
    /// [`process`](QueryRegistry::process).
    pub fn flush(&mut self, out: &mut Vec<(QueryId, Match)>) {
        self.flush_fragments();
        self.fan_out(None, |id, m| out.push((id, m)));
    }

    fn offer(&mut self, event: &EventRef) {
        self.view.take();
        self.own.events_processed += 1;
        for frag in self.slots.iter_mut().flatten() {
            frag.staged.clear();
            if frag.route_all || frag.cp.uses_type(event.type_id) {
                frag.engine.process(event, &mut frag.staged);
            }
        }
    }

    fn flush_fragments(&mut self) {
        self.view.take();
        for frag in self.slots.iter_mut().flatten() {
            frag.staged.clear();
            frag.engine.flush(&mut frag.staged);
        }
    }

    /// Delivers the fragments' staged matches to every subscribed query,
    /// in query-id then branch order. A multi-branch query keeps the first
    /// sighting of each signature; `watermark` is the current event's
    /// timestamp (`None` at flush), to which its memory then advances. A
    /// fragment with a single subscriber hands its matches over without
    /// cloning.
    fn fan_out(&mut self, watermark: Option<Timestamp>, mut emit: impl FnMut(QueryId, Match)) {
        let slots = &mut self.slots;
        for (&id, q) in self.queries.iter_mut() {
            let mut emitted = 0u64;
            let union = q.fragments.len() > 1;
            for &slot in &q.fragments {
                let frag = slots[slot].as_mut().expect("live slot");
                let sole = frag.subscribers == 1;
                let mut first_sighting =
                    |m: &Match| !union || q.seen.insert(m.signature(), m.max_ts());
                if sole {
                    for m in frag.staged.drain(..) {
                        if first_sighting(&m) {
                            emit(id, m);
                            emitted += 1;
                        }
                    }
                } else {
                    for m in &frag.staged {
                        if first_sighting(m) {
                            emit(id, m.clone());
                            emitted += 1;
                        }
                    }
                }
            }
            if let Some(ts) = watermark {
                q.events_processed += 1;
                if union {
                    q.seen.expire(ts);
                }
            }
            q.matches_emitted += emitted;
            self.own.fanout_emits += emitted;
        }
    }

    /// Processes a whole stream then flushes, collecting each query's
    /// matches in emission order.
    pub fn run(&mut self, stream: &[EventRef]) -> RegistryRunResult {
        let start = Instant::now();
        let mut per_query: BTreeMap<QueryId, Vec<Match>> =
            self.queries.keys().map(|&id| (id, Vec::new())).collect();
        let mut out = Vec::new();
        for event in stream {
            self.process(event, &mut out);
            for (id, m) in out.drain(..) {
                per_query.entry(id).or_default().push(m);
            }
        }
        self.flush(&mut out);
        for (id, m) in out.drain(..) {
            per_query.entry(id).or_default().push(m);
        }
        self.view.take();
        self.own.wall_time_ns += start.elapsed().as_nanos() as u64;
        RegistryRunResult {
            per_query,
            metrics: self.metrics(),
        }
    }

    /// The registry-wide metrics view: fragment engines' counters
    /// absorbed **once each** (shared work counts once, however many
    /// queries subscribe), plus retired fragments' final counters, with
    /// the registry-owned totals (`events_processed`, `wall_time_ns`,
    /// `registered_queries`, `shared_fragments`, `fanout_emits`, and the
    /// histograms a harness records through [`Engine::metrics_mut`]) on
    /// top.
    pub fn metrics(&self) -> EngineMetrics {
        let mut agg = self.retired.clone();
        for frag in self.slots.iter().flatten() {
            agg.absorb(frag.engine.metrics());
        }
        agg.absorb(&self.own);
        agg.events_processed = self.own.events_processed;
        agg.wall_time_ns = self.own.wall_time_ns;
        agg
    }

    /// One query's metrics view: subscribed fragments' counters absorbed
    /// (shared work appears in *every* subscriber's view),
    /// `events_processed` and post-dedup `matches_emitted` the query's
    /// own. `None` for unknown ids.
    pub fn query_metrics(&self, id: QueryId) -> Option<EngineMetrics> {
        let q = self.queries.get(&id)?;
        let mut agg = EngineMetrics::new();
        for &slot in &q.fragments {
            let frag = self.slots[slot].as_ref().expect("live slot");
            agg.absorb(frag.engine.metrics());
        }
        agg.events_processed = q.events_processed;
        agg.matches_emitted = q.matches_emitted;
        Some(agg)
    }

    /// Live registered query ids, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.keys().copied().collect()
    }

    /// Whether `id` is currently registered.
    pub fn contains(&self, id: QueryId) -> bool {
        self.queries.contains_key(&id)
    }

    /// Number of live registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of distinct live fragments (shared engines).
    pub fn fragment_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// The set-level plan report for the currently registered queries:
    /// sharing counts plus maximal shared SEQ prefixes across distinct
    /// fragments. See [`SetPlanReport`].
    pub fn set_plan(&self) -> SetPlanReport {
        let branch_subscriptions: usize = self.queries.values().map(|q| q.fragments.len()).sum();
        let live: Vec<&CompiledPattern> = self.slots.iter().flatten().map(|f| &f.cp).collect();
        SetPlanReport {
            queries: self.queries.len(),
            branch_subscriptions,
            distinct_fragments: live.len(),
            shared_subscriptions: branch_subscriptions - live.len().min(branch_subscriptions),
            prefix_groups: shared_prefix_groups(&live),
        }
    }
}

/// A registry as one engine: its untagged output is every query's
/// matches in fan-out order — for a registry of one
/// ([`QueryRegistry::of_query`]), exactly that query's matches. The
/// metrics are [`QueryRegistry::metrics`] with `matches_emitted` counting
/// the delivered (post-dedup) matches.
impl Engine for QueryRegistry {
    fn process(&mut self, event: &EventRef, out: &mut Vec<Match>) {
        self.offer(event);
        self.fan_out(Some(event.ts), |_, m| out.push(m));
    }

    fn flush(&mut self, out: &mut Vec<Match>) {
        self.flush_fragments();
        self.fan_out(None, |_, m| out.push(m));
    }

    fn metrics(&self) -> &EngineMetrics {
        self.view.get_or_init(|| {
            let mut m = QueryRegistry::metrics(self);
            m.matches_emitted = self.own.fanout_emits;
            m
        })
    }

    fn metrics_mut(&mut self) -> &mut EngineMetrics {
        self.view.take();
        &mut self.own
    }

    fn name(&self) -> &'static str {
        "registry"
    }
}

/// The outcome of [`QueryRegistry::run`].
pub struct RegistryRunResult {
    /// Matches per query in emission order (every registered query has
    /// an entry, possibly empty).
    pub per_query: BTreeMap<QueryId, Vec<Match>>,
    /// The registry-wide metrics snapshot ([`QueryRegistry::metrics`]).
    pub metrics: EngineMetrics,
}

/// A serializable-enough description of a query set: compiled branches
/// plus the fragment builder and config, from which identical
/// [`QueryRegistry`] instances can be stamped out — the multi-query
/// analogue of [`crate::engine::EngineFactory`], consumed by
/// `cep-shard`'s multi-query layout (one registry per worker). All
/// instances share one predicate-program cache, so each fragment's
/// predicates are lowered once across the fleet.
pub struct RegistrySpec {
    queries: Vec<(Vec<CompiledPattern>, u64)>,
    builder: Arc<dyn FragmentBuilder>,
    config: EngineConfig,
    plan_cache: SharedPlanCache,
}

impl RegistrySpec {
    /// An empty spec building fragments with `builder` under `config`.
    pub fn new(builder: Arc<dyn FragmentBuilder>, config: EngineConfig) -> RegistrySpec {
        RegistrySpec {
            queries: Vec::new(),
            builder,
            config,
            plan_cache: shared_plan_cache(REGISTRY_PLAN_CACHE_CAP),
        }
    }

    /// Adds a pattern (compiled to DNF branches). The returned id is the
    /// one every instantiated registry assigns this query.
    pub fn add(&mut self, pattern: &Pattern) -> Result<QueryId, CepError> {
        let branches = CompiledPattern::compile(pattern)?;
        Ok(self.add_compiled(branches, pattern.window))
    }

    /// Adds a query from pre-compiled branches sharing `window`.
    pub fn add_compiled(&mut self, branches: Vec<CompiledPattern>, window: u64) -> QueryId {
        let id = QueryId(self.queries.len() as u64);
        self.queries.push((branches, window));
        id
    }

    /// Number of queries in the spec.
    pub fn queries(&self) -> usize {
        self.queries.len()
    }

    /// Every branch of every query (with repetition), for routing-policy
    /// soundness validation.
    pub fn branches(&self) -> impl Iterator<Item = &CompiledPattern> {
        self.queries.iter().flat_map(|(bs, _)| bs.iter())
    }

    /// The widest query window in the spec (0 when empty).
    pub fn max_window(&self) -> u64 {
        self.queries.iter().map(|&(_, w)| w).max().unwrap_or(0)
    }

    /// Builds a fresh registry with every query registered, in spec
    /// order (so ids match the ones [`add`](RegistrySpec::add)
    /// returned).
    pub fn instantiate(&self) -> Result<QueryRegistry, CepError> {
        let mut registry = QueryRegistry::with_plan_cache(
            self.builder.clone(),
            self.config.clone(),
            self.plan_cache.clone(),
        );
        for (branches, window) in &self.queries {
            registry.register_compiled(branches.clone(), *window)?;
        }
        Ok(registry)
    }
}

/// Stable signature of the first `k` elements of a SEQ branch: the
/// sub-pattern hash behind shared-prefix detection. Two branches with
/// equal `prefix_signature(_, k)` have identical first-`k` elements
/// (positions, types, Kleene flags), identical predicates *within* those
/// elements, and the same window and selection strategy — so a planner
/// may evaluate the shared prefix in the same order for both.
///
/// `None` for non-SEQ branches, branches with negated elements, or
/// `k` outside `2..=n` (prefixes shorter than 2 share nothing worth
/// aligning; `k == n` is the whole branch, which fragment signatures
/// already canonicalize).
pub fn prefix_signature(cp: &CompiledPattern, k: usize) -> Option<u64> {
    use crate::compile::NaryOp;
    use crate::compiled::{cmp_op_tag, write_operand, SigHasher};
    if cp.op != NaryOp::Seq || !cp.negated.is_empty() || k < 2 || k >= cp.n() {
        return None;
    }
    let prefix = &cp.elements[..k];
    let positions: Vec<usize> = prefix.iter().map(|e| e.position).collect();
    let contained = |pos: usize| positions.contains(&pos);
    let mut h = SigHasher::new();
    h.write_u8(0xF1); // prefix-hash domain tag, disjoint from signature()'s op byte

    h.write_u64(k as u64);
    for e in prefix {
        h.write_u64(e.position as u64);
        h.write_u64(e.event_type.0 as u64);
        h.write_u8(e.kleene as u8);
    }
    for p in &cp.predicates {
        let inside = [p.left.position(), p.right.position()]
            .into_iter()
            .flatten()
            .all(contained);
        if !inside {
            continue;
        }
        write_operand(&mut h, &p.left);
        h.write_u8(cmp_op_tag(p.op));
        write_operand(&mut h, &p.right);
    }
    h.write_u64(cp.window);
    h.write_u8(match cp.strategy {
        crate::selection::SelectionStrategy::SkipTillAnyMatch => 0,
        crate::selection::SelectionStrategy::SkipTillNextMatch => 1,
        crate::selection::SelectionStrategy::StrictContiguity => 2,
        crate::selection::SelectionStrategy::PartitionContiguity => 3,
    });
    Some(h.finish())
}

/// A group of distinct fragments sharing a maximal SEQ prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixGroup {
    /// Shared prefix length in elements (≥ 2).
    pub len: usize,
    /// The shared [`prefix_signature`].
    pub signature: u64,
    /// Distinct fragments in the group (≥ 2).
    pub fragments: usize,
}

/// The set-level plan report: how much of the registered query set is
/// shared, produced by [`QueryRegistry::set_plan`].
#[derive(Debug, Clone)]
pub struct SetPlanReport {
    /// Live registered queries.
    pub queries: usize,
    /// Total branch subscriptions across queries (with repetition).
    pub branch_subscriptions: usize,
    /// Distinct fragments actually executing.
    pub distinct_fragments: usize,
    /// Subscriptions served by an already-shared fragment
    /// (`branch_subscriptions - distinct_fragments`).
    pub shared_subscriptions: usize,
    /// Maximal shared SEQ prefixes across *distinct* fragments, longest
    /// first: sharing below full-fragment granularity that a
    /// planner-backed builder can exploit by aligning prefix evaluation
    /// orders.
    pub prefix_groups: Vec<PrefixGroup>,
}

impl SetPlanReport {
    /// Branch subscriptions per executing fragment — 1.0 for a
    /// zero-overlap query set, growing with sharing.
    pub fn sharing_ratio(&self) -> f64 {
        if self.distinct_fragments == 0 {
            return 1.0;
        }
        self.branch_subscriptions as f64 / self.distinct_fragments as f64
    }
}

/// Maximal shared-prefix groups among distinct fragments: all `(k,
/// signature)` groups with ≥ 2 members, minus those whose member set is
/// identical to a longer group's (they add no information — sharing a
/// `k+1`-prefix implies sharing the `k`-prefix). Sorted longest first,
/// then by signature for determinism.
fn shared_prefix_groups(fragments: &[&CompiledPattern]) -> Vec<PrefixGroup> {
    let mut groups: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (idx, cp) in fragments.iter().enumerate() {
        for k in 2..cp.n() {
            if let Some(sig) = prefix_signature(cp, k) {
                groups.entry((k, sig)).or_default().push(idx);
            }
        }
    }
    let mut shared: Vec<((usize, u64), Vec<usize>)> = groups
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .collect();
    shared.sort_by(|a, b| b.0 .0.cmp(&a.0 .0).then(a.0 .1.cmp(&b.0 .1)));
    let mut kept: Vec<PrefixGroup> = Vec::new();
    let mut kept_members: Vec<(usize, Vec<usize>)> = Vec::new();
    for ((k, sig), mut members) in shared {
        members.sort_unstable();
        let dominated = kept_members
            .iter()
            .any(|(kk, mm)| *kk > k && *mm == members);
        if dominated {
            continue;
        }
        kept.push(PrefixGroup {
            len: k,
            signature: sig,
            fragments: members.len(),
        });
        kept_members.push((k, members));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_to_completion;
    use crate::event::{Event, TypeId};
    use crate::matches::keyed;
    use crate::naive::{union_of, NaiveEngine};
    use crate::pattern::PatternBuilder;
    use crate::predicate::{CmpOp, Predicate};
    use crate::stream::StreamBuilder;
    use crate::value::Value;

    /// Fragment builder over the naive oracle (the only engine cep-core
    /// itself ships).
    fn naive_builder(cfg: &EngineConfig) -> Arc<dyn FragmentBuilder> {
        let cfg = cfg.clone();
        Arc::new(
            move |cp: &CompiledPattern, _program: Option<Arc<PredicateProgram>>| {
                Ok(Box::new(NaiveEngine::new(cp.clone(), cfg.clone())) as Box<dyn Engine>)
            },
        )
    }

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    /// SEQ(a, b) within `window`, optionally with an a.0 < b.0 predicate.
    fn seq_ab(window: u64, ta: u32, tb: u32, pred: bool) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let c = b.event(t(tb), "b");
        if pred {
            b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        }
        b.seq([a, c]).unwrap()
    }

    /// SEQ(a, b, c) over types `(ta, tb, tc)` with a.0 < b.0.
    fn seq_abc(window: u64, ta: u32, tb: u32, tc: u32) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let x = b.event(t(tb), "b");
        let c = b.event(t(tc), "c");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, x.pos(), 0));
        b.seq([a, x, c]).unwrap()
    }

    /// SEQ(a, NOT n, b): trailing-interval negation exercising deferred
    /// emission (and thus route-all delivery).
    fn seq_with_not(window: u64, ta: u32, tn: u32, tb: u32) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let a = b.event(t(ta), "a");
        let n = b.event(t(tn), "n");
        let c = b.event(t(tb), "b");
        let exprs = vec![b.expr(a), b.not(n), b.expr(c)];
        b.seq_exprs(exprs).unwrap()
    }

    fn stream(raw: &[(u32, u64, i64)]) -> Vec<EventRef> {
        let mut sb = StreamBuilder::new();
        for &(tid, ts, x) in raw {
            sb.push(Event::new(t(tid), ts, vec![Value::Int(x)]));
        }
        sb.build()
    }

    fn mixed_stream() -> Vec<EventRef> {
        // Types 0..4, some ts ties, varying attribute values.
        let mut raw = Vec::new();
        let mut ts = 0;
        for i in 0..200i64 {
            ts += (i % 3) as u64;
            raw.push(((i % 5) as u32, ts, (i * 7) % 13 - 6));
        }
        stream(&raw)
    }

    /// Registry output per query must be byte-identical to the union of
    /// independent naive engines over the same branches.
    fn assert_registry_matches_independent(patterns: &[Pattern]) {
        let cfg = EngineConfig::default();
        let mut registry = QueryRegistry::new(naive_builder(&cfg), cfg.clone());
        let ids: Vec<QueryId> = patterns
            .iter()
            .map(|p| registry.register(p).unwrap())
            .collect();
        let stream = mixed_stream();
        let result = registry.run(&stream);
        for (p, id) in patterns.iter().zip(&ids) {
            let expected = union_of(
                CompiledPattern::compile(p)
                    .unwrap()
                    .into_iter()
                    .map(|cp| {
                        let mut e = NaiveEngine::new(cp, cfg.clone());
                        run_to_completion(&mut e, &stream, true).matches
                    })
                    .collect(),
            );
            assert_eq!(
                keyed(&result.per_query[id]),
                keyed(&expected),
                "query {id} diverged from its independent engines"
            );
        }
    }

    /// Naive engines for every branch of `p`, paired with their branches.
    fn prebuilt(p: &Pattern) -> Vec<(CompiledPattern, Box<dyn Engine>)> {
        CompiledPattern::compile(p)
            .unwrap()
            .into_iter()
            .map(|cp| {
                let e = Box::new(NaiveEngine::new(cp.clone(), EngineConfig::default()));
                (cp, e as Box<dyn Engine>)
            })
            .collect()
    }

    /// SEQ(OR(NOT n₁, NOT n₂), a, b) with a.0 < b.0: two branches binding
    /// the same positive events, so a match surviving both negations is
    /// emitted by both fragments.
    fn seq_after_either_absence(window: u64, n: (u32, u32), ta: u32, tb: u32) -> Pattern {
        let mut b = PatternBuilder::new(window);
        let n1 = b.event(t(n.0), "n1");
        let n2 = b.event(t(n.1), "n2");
        let a = b.event(t(ta), "a");
        let c = b.event(t(tb), "b");
        b.predicate(Predicate::attr_cmp(a.pos(), 0, CmpOp::Lt, c.pos(), 0));
        let either = crate::pattern::PatternExpr::Or(vec![b.not(n1), b.not(n2)]);
        let exprs = vec![either, b.expr(a), b.expr(c)];
        b.seq_exprs(exprs).unwrap()
    }

    #[test]
    fn registry_of_one_unions_overlapping_branches() {
        let p = seq_after_either_absence(6, (3, 4), 0, 1);
        let stream = mixed_stream();
        let mut one = QueryRegistry::of_query(prebuilt(&p), p.window).unwrap();
        assert_eq!(one.fragment_count(), 2);
        let r = run_to_completion(&mut one, &stream, true);
        let outputs: Vec<Vec<Match>> = prebuilt(&p)
            .into_iter()
            .map(|(_, mut e)| run_to_completion(e.as_mut(), &stream, true).matches)
            .collect();
        let emitted: usize = outputs.iter().map(Vec::len).sum();
        let expected = union_of(outputs);
        assert!(
            !expected.is_empty() && expected.len() < emitted,
            "fixture must exercise cross-branch dedup"
        );
        assert_eq!(keyed(&r.matches), keyed(&expected));
        assert_eq!(r.metrics.matches_emitted, r.match_count);
        assert_eq!(r.metrics.events_processed, stream.len() as u64);
        assert!(
            r.metrics.throughput_eps() > 0.0,
            "harness timing lands in the view"
        );
    }

    #[test]
    fn registry_of_one_shares_identical_branches() {
        // Two separately compiled but identical branches: one shared
        // fragment, and every match delivered once.
        let cp = CompiledPattern::compile_single(&seq_ab(9, 0, 1, true)).unwrap();
        let naive = |cp: &CompiledPattern| {
            Box::new(NaiveEngine::new(cp.clone(), EngineConfig::default())) as Box<dyn Engine>
        };
        let branches = vec![(cp.clone(), naive(&cp)), (cp.clone(), naive(&cp))];
        let mut one = QueryRegistry::of_query(branches, 9).unwrap();
        assert_eq!(one.fragment_count(), 1);
        let stream = mixed_stream();
        let r = run_to_completion(&mut one, &stream, true);
        let expected = run_to_completion(naive(&cp).as_mut(), &stream, true).matches;
        assert!(!expected.is_empty());
        assert_eq!(keyed(&r.matches), keyed(&expected));
        assert_eq!(Engine::metrics(&one).matches_emitted, expected.len() as u64);
    }

    #[test]
    fn registry_of_one_rejects_further_queries() {
        let p = seq_ab(10, 0, 1, true);
        let mut one = QueryRegistry::of_query(prebuilt(&p), p.window).unwrap();
        assert!(matches!(
            one.register(&seq_ab(10, 2, 3, false)),
            Err(CepError::Plan(_))
        ));
        assert_eq!(one.len(), 1);
        assert!(QueryRegistry::of_query(Vec::new(), 10).is_err());
    }

    #[test]
    fn duplicate_registration_shares_one_fragment() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg);
        let p = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&p).unwrap();
        let q2 = reg.register(&p).unwrap();
        assert_ne!(q1, q2, "same pattern twice still gets distinct ids");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.fragment_count(), 1, "identical branches share");
        let m = reg.metrics();
        assert_eq!(m.registered_queries, 2);
        assert_eq!(m.shared_fragments, 1);
        // Both queries receive every match of the shared fragment.
        let result = reg.run(&mixed_stream());
        assert!(!result.per_query[&q1].is_empty());
        assert_eq!(keyed(&result.per_query[&q1]), keyed(&result.per_query[&q2]));
        assert_eq!(
            result.metrics.fanout_emits,
            2 * result.per_query[&q1].len() as u64
        );
    }

    #[test]
    fn zero_overlap_set_degrades_to_independent_execution() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg);
        reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        reg.register(&seq_ab(10, 2, 3, false)).unwrap();
        reg.register(&seq_ab(7, 1, 4, true)).unwrap();
        assert_eq!(reg.fragment_count(), 3, "no sharing possible");
        let report = reg.set_plan();
        assert_eq!(report.shared_subscriptions, 0);
        assert!((report.sharing_ratio() - 1.0).abs() < 1e-12);
        assert_registry_matches_independent(&[
            seq_ab(10, 0, 1, true),
            seq_ab(10, 2, 3, false),
            seq_ab(7, 1, 4, true),
        ]);
    }

    #[test]
    fn overlapping_set_is_byte_identical_per_query() {
        // 8 registrations over 4 distinct patterns, including negation
        // (deferred emission) and a disjunction (cross-branch dedup).
        let or_pattern = {
            let mut b2 = PatternBuilder::new(9);
            let a2 = b2.event(t(0), "a");
            let c2 = b2.event(t(1), "b");
            let d2 = b2.event(t(1), "c");
            let e2 = b2.event(t(2), "d");
            let left = PatternExprHelpers::seq2(&b2, a2, c2);
            let right = PatternExprHelpers::seq2(&b2, d2, e2);
            b2.or_exprs(vec![left, right]).unwrap()
        };
        let patterns = vec![
            seq_ab(10, 0, 1, true),
            seq_ab(10, 0, 1, true), // duplicate
            seq_with_not(8, 0, 2, 1),
            or_pattern.clone(),
            seq_abc(10, 0, 1, 2),
            seq_ab(10, 0, 1, false),
            or_pattern,
            seq_with_not(8, 0, 2, 1), // duplicate
        ];
        assert_registry_matches_independent(&patterns);
    }

    /// Helper for building SEQ sub-expressions inside an OR.
    struct PatternExprHelpers;
    impl PatternExprHelpers {
        fn seq2(
            b: &PatternBuilder,
            x: crate::pattern::Ev,
            y: crate::pattern::Ev,
        ) -> crate::pattern::PatternExpr {
            crate::pattern::PatternExpr::Seq(vec![b.expr(x), b.expr(y)])
        }
    }

    #[test]
    fn unregister_mid_stream_leaves_remaining_queries_byte_identical() {
        let cfg = EngineConfig::default();
        let p_keep = seq_ab(10, 0, 1, true);
        let p_drop = seq_ab(10, 0, 1, false);
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg.clone());
        let keep = reg.register(&p_keep).unwrap();
        let drop_id = reg.register(&p_drop).unwrap();
        let stream = mixed_stream();
        let mut out = Vec::new();
        let mut kept_matches = Vec::new();
        for (i, e) in stream.iter().enumerate() {
            if i == stream.len() / 2 {
                assert!(reg.unregister(drop_id));
                assert!(!reg.contains(drop_id));
            }
            reg.process(e, &mut out);
            for (id, m) in out.drain(..) {
                if id == keep {
                    kept_matches.push(m);
                }
            }
        }
        reg.flush(&mut out);
        for (id, m) in out.drain(..) {
            if id == keep {
                kept_matches.push(m);
            }
        }
        let cp = CompiledPattern::compile_single(&p_keep).unwrap();
        let mut independent = NaiveEngine::new(cp, cfg);
        let expected = run_to_completion(&mut independent, &stream, true).matches;
        assert_eq!(keyed(&kept_matches), keyed(&expected));
    }

    #[test]
    fn unregister_retires_exclusive_fragments_only() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg);
        let shared = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&shared).unwrap();
        let _q2 = reg.register(&shared).unwrap();
        let q3 = reg.register(&seq_ab(10, 2, 3, false)).unwrap();
        assert_eq!(reg.fragment_count(), 2);
        // q1 leaves: the shared fragment survives (q2 still subscribed).
        assert!(reg.unregister(q1));
        assert_eq!(reg.fragment_count(), 2);
        // q3 leaves: its exclusive fragment is retired.
        let before = reg.metrics();
        assert!(reg.unregister(q3));
        assert_eq!(reg.fragment_count(), 1);
        let after = reg.metrics();
        assert!(
            after.events_relevant >= before.events_relevant
                && after.predicate_evaluations >= before.predicate_evaluations,
            "retired fragment counters stay in the aggregate"
        );
        assert!(!reg.unregister(q3), "double unregister is a no-op");
    }

    #[test]
    fn register_failure_leaves_registry_unchanged() {
        let cfg = EngineConfig::default();
        let flaky: Arc<dyn FragmentBuilder> = {
            let cfg = cfg.clone();
            Arc::new(
                move |cp: &CompiledPattern, _p: Option<Arc<PredicateProgram>>| {
                    if cp.n() >= 3 {
                        return Err(CepError::Plan("no engine for wide branches".into()));
                    }
                    Ok(Box::new(NaiveEngine::new(cp.clone(), cfg.clone())) as Box<dyn Engine>)
                },
            )
        };
        let mut reg = QueryRegistry::new(flaky, cfg);
        reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        assert_eq!(reg.fragment_count(), 1);
        let err = reg.register(&seq_abc(10, 0, 1, 2));
        assert!(err.is_err());
        assert_eq!(reg.len(), 1, "failed registration left no query behind");
        assert_eq!(reg.fragment_count(), 1, "and no orphan fragment");
    }

    #[test]
    fn per_query_metrics_mirror_subscriptions() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg);
        let p = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&p).unwrap();
        let q2 = reg.register(&p).unwrap();
        let stream = mixed_stream();
        let result = reg.run(&stream);
        let m1 = reg.query_metrics(q1).unwrap();
        let m2 = reg.query_metrics(q2).unwrap();
        assert_eq!(m1.events_processed, stream.len() as u64);
        assert_eq!(m1.matches_emitted, result.per_query[&q1].len() as u64);
        // Shared fragment: both views absorb the same engine counters.
        assert_eq!(m1.predicate_evaluations, m2.predicate_evaluations);
        // Registry-level view counts the shared work once.
        let total = reg.metrics();
        assert_eq!(total.predicate_evaluations, m1.predicate_evaluations);
        assert!(reg.query_metrics(QueryId(999)).is_none());
    }

    #[test]
    fn type_routing_skips_irrelevant_fragments() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg.clone());
        let q = reg.register(&seq_ab(10, 0, 1, true)).unwrap();
        let stream = mixed_stream(); // types 0..4; only 0 and 1 relevant
        let result = reg.run(&stream);
        let qm = reg.query_metrics(q).unwrap();
        assert!(
            qm.events_relevant < stream.len() as u64,
            "fragment only saw its own types"
        );
        // Output still identical to an engine fed the full stream.
        let cp = CompiledPattern::compile_single(&seq_ab(10, 0, 1, true)).unwrap();
        let mut ind = NaiveEngine::new(cp, cfg);
        let expected = run_to_completion(&mut ind, &stream, true).matches;
        assert_eq!(keyed(&result.per_query[&q]), keyed(&expected));
    }

    #[test]
    fn set_plan_detects_shared_prefixes() {
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg);
        // Same (a, b) prefix with predicate, different third element.
        reg.register(&seq_abc(10, 0, 1, 2)).unwrap();
        reg.register(&seq_abc(10, 0, 1, 3)).unwrap();
        reg.register(&seq_ab(10, 4, 2, false)).unwrap();
        let report = reg.set_plan();
        assert_eq!(report.queries, 3);
        assert_eq!(report.distinct_fragments, 3);
        assert_eq!(report.prefix_groups.len(), 1, "{:?}", report.prefix_groups);
        assert_eq!(report.prefix_groups[0].len, 2);
        assert_eq!(report.prefix_groups[0].fragments, 2);
    }

    #[test]
    fn prefix_signature_contract() {
        let p1 = CompiledPattern::compile_single(&seq_abc(10, 0, 1, 2)).unwrap();
        let p2 = CompiledPattern::compile_single(&seq_abc(10, 0, 1, 3)).unwrap();
        let p3 = CompiledPattern::compile_single(&seq_abc(11, 0, 1, 2)).unwrap();
        assert_eq!(prefix_signature(&p1, 2), prefix_signature(&p2, 2));
        assert_ne!(
            prefix_signature(&p1, 2),
            prefix_signature(&p3, 2),
            "window differences break prefix sharing"
        );
        assert_eq!(prefix_signature(&p1, 1), None, "k < 2 is not a prefix");
        assert_eq!(prefix_signature(&p1, 3), None, "k == n is the whole branch");
        let neg = CompiledPattern::compile_single(&seq_with_not(8, 0, 2, 1)).unwrap();
        assert_eq!(prefix_signature(&neg, 2), None, "negated branches excluded");
    }

    #[test]
    fn registry_spec_instantiates_identical_registries() {
        let cfg = EngineConfig::default();
        let mut spec = RegistrySpec::new(naive_builder(&cfg), cfg);
        let a = spec.add(&seq_ab(10, 0, 1, true)).unwrap();
        let b = spec.add(&seq_abc(10, 0, 1, 2)).unwrap();
        assert_eq!(spec.queries(), 2);
        assert_eq!(spec.max_window(), 10);
        assert!(spec.branches().count() >= 2);
        let stream = mixed_stream();
        let r1 = spec.instantiate().unwrap().run(&stream);
        let r2 = spec.instantiate().unwrap().run(&stream);
        for id in [a, b] {
            assert_eq!(keyed(&r1.per_query[&id]), keyed(&r2.per_query[&id]));
        }
        // The second instantiation reused every lowered program.
        assert_eq!(r2.metrics.plan_cache_misses, 0);
        assert!(r2.metrics.plan_cache_hits >= 2);
    }

    #[test]
    fn tracer_sees_registrations_and_unregistrations() {
        let ring = Arc::new(cep_obs::RingSink::new(16));
        let cfg = EngineConfig::default();
        let mut reg = QueryRegistry::new(naive_builder(&cfg), cfg);
        reg.set_tracer(Tracer::to_sink(ring.clone()));
        let p = seq_ab(10, 0, 1, true);
        let q1 = reg.register(&p).unwrap();
        let _q2 = reg.register(&p).unwrap();
        reg.unregister(q1);
        let records = ring.snapshot();
        assert_eq!(records.len(), 3);
        match &records[1] {
            TraceRecord::QueryRegistered {
                branches, shared, ..
            } => {
                assert_eq!(*branches, 1);
                assert_eq!(*shared, 1);
            }
            other => panic!("expected QueryRegistered, got {other:?}"),
        }
        match &records[2] {
            TraceRecord::QueryUnregistered {
                retired_fragments,
                fragments,
                ..
            } => {
                assert_eq!(*retired_fragments, 0, "fragment still shared");
                assert_eq!(*fragments, 1);
            }
            other => panic!("expected QueryUnregistered, got {other:?}"),
        }
    }
}
