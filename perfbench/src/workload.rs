//! The four workloads: inputs generated from the run's seed, queries as
//! SASE text, and the public construction path each one goes through.
//!
//! The seed only drives the event stream (arrival times, attribute
//! walks, join keys). Symbol rates, query texts and plans come from
//! fixed definition constants, so two seeds give statistically equal
//! work and the run-to-run spread measures the program, not the draw.

use cep::adaptive::AdaptiveConfig;
use cep::core::engine::{Engine, EngineConfig};
use cep::core::error::CepError;
use cep::core::event::{Event, EventRef, TypeId};
use cep::core::matches::Match;
use cep::core::metrics::EngineMetrics;
use cep::core::pattern::Pattern;
use cep::core::registry::{QueryId, QueryRegistry, RegistrySpec};
use cep::core::schema::{Catalog, ValueKind};
use cep::core::stream::{EventStream, StreamBuilder};
use cep::core::value::Value;
use cep::optimizer::{OrderAlgorithm, TreeAlgorithm};
use cep::shard::{MultiQueryRunResult, RoutingPolicy, ShardedRuntime};
use cep::streamgen::{
    generate_drifting, generate_set, DriftPhase, GeneratedStream, PatternSetKind, StockConfig,
    StockStreamGenerator, SymbolSpec, WorkloadConfig,
};
use cep::Backend;

/// Seed of everything that defines a workload rather than its input:
/// symbol specs and the drawn query set.
const DEFINITION_SEED: u64 = 0xCE9_2018;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["stock-mix", "rare-join", "rate-drift", "sharded-keyed"];

/// How the workload's queries are executed.
pub enum Shape {
    /// Every query registered in one `QueryRegistry`.
    Registry,
    /// One query in an adaptive engine built by `cep::engine(..).adaptive(..)`.
    Adaptive(AdaptiveConfig),
    /// A `RegistrySpec` run by `ShardedRuntime::run_registry`, hashing
    /// the given attribute over the given number of shards.
    Sharded { shards: usize, key_attr: usize },
}

/// One generated workload.
pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    /// The input stream plus the symbol metadata the planners read.
    pub gen: GeneratedStream,
    /// Query texts, parsed again by every setup.
    pub queries: Vec<String>,
    pub backend: Backend,
    pub shape: Shape,
    pub config: EngineConfig,
    /// Backend of the full-stream cross-check.
    pub check_backend: Backend,
    /// Length of the stream prefix checked against the naive oracle.
    pub oracle_prefix: usize,
}

/// A single-threaded system under test: a registry, or one engine whose
/// matches belong to query 0.
pub enum Sut {
    Registry(Box<QueryRegistry>, Vec<(QueryId, Match)>),
    Engine(Box<dyn Engine>, Vec<Match>),
}

impl Sut {
    pub fn registry(r: QueryRegistry) -> Sut {
        Sut::Registry(Box::new(r), Vec::new())
    }

    /// Offers one event (`None` flushes) and hands every match to `f`
    /// with its query id; returns how many there were.
    pub fn step(&mut self, event: Option<&EventRef>, mut f: impl FnMut(u64, &Match)) -> usize {
        match self {
            Sut::Registry(r, out) => {
                match event {
                    Some(e) => r.process(e, out),
                    None => r.flush(out),
                }
                let n = out.len();
                out.drain(..).for_each(|(id, m)| f(id.0, &m));
                n
            }
            Sut::Engine(e, out) => {
                match event {
                    Some(ev) => e.process(ev, out),
                    None => e.flush(out),
                }
                let n = out.len();
                out.drain(..).for_each(|m| f(0, &m));
                n
            }
        }
    }

    /// [`step`](Sut::step) that drops the matches.
    pub fn count(&mut self, event: Option<&EventRef>) -> usize {
        self.step(event, |_, _| {})
    }

    /// The metrics view: a registry's sums every fragment once.
    pub fn metrics(&self) -> EngineMetrics {
        match self {
            Sut::Registry(r, _) => r.metrics(),
            Sut::Engine(e, _) => e.metrics().clone(),
        }
    }
}

/// Input streams a run of workload `name` measures, each a full copy of
/// the workload with an event stream of its own. The peak state of one
/// stream is set by its draw: it varied by 8% (standard deviation over
/// mean) over 20 seeds on `stock-mix` and by 11% over 40 seeds on
/// `rate-drift`, where it is the partial matches a stale plan builds up
/// between a rate change and the swap. The run reports the median over
/// its streams.
fn streams(name: &str) -> usize {
    match name {
        "stock-mix" => 3,
        "rate-drift" => 8,
        _ => 1,
    }
}

impl Workload {
    /// The input streams of a run of workload `name`: the first from
    /// `seed` itself, the others from seeds drawn from it.
    pub fn generate_all(name: &str, seed: u64) -> Result<Vec<Workload>, CepError> {
        let mut derived = SplitMix(seed);
        (0..streams(name))
            .map(|k| Workload::generate(name, if k == 0 { seed } else { derived.next() }))
            .collect()
    }

    /// Generates workload `name` from `seed`.
    fn generate(name: &str, seed: u64) -> Result<Workload, CepError> {
        match name {
            "stock-mix" => stock_mix(seed),
            "rare-join" => rare_join(seed),
            "rate-drift" => rate_drift(seed),
            "sharded-keyed" => sharded_keyed(seed),
            other => Err(CepError::Pattern(format!("unknown workload {other:?}"))),
        }
    }

    pub fn events(&self) -> &[EventRef] {
        &self.gen.stream
    }

    /// Parses every query text against the workload's catalog.
    pub fn parse(&self) -> Result<Vec<Pattern>, CepError> {
        self.queries
            .iter()
            .map(|q| cep::sase::parse_pattern(q, &self.catalog))
            .collect()
    }

    /// Query text to a single-threaded system that takes the first
    /// event. On the workload's own backend an adaptive workload gets its
    /// adaptive engine; any other backend gets a plain registry.
    pub fn build(&self, backend: Backend) -> Result<Sut, CepError> {
        self.build_from(&self.parse()?, backend)
    }

    /// [`build`](Workload::build) from parsed queries.
    pub fn build_from(&self, patterns: &[Pattern], backend: Backend) -> Result<Sut, CepError> {
        if let (Shape::Adaptive(adaptive), true) = (&self.shape, backend == self.backend) {
            let engine = cep::engine(&patterns[0])
                .backend(backend)
                .stats(&self.gen)
                .config(self.config.clone())
                .adaptive(adaptive.clone())
                .build()?;
            return Ok(Sut::Engine(engine, Vec::new()));
        }
        let mut registry = cep::registry()
            .backend(backend)
            .stats(&self.gen)
            .config(self.config.clone())
            .build()?;
        for p in patterns {
            registry.register(p)?;
        }
        Ok(Sut::registry(registry))
    }

    /// Query text to the registry spec a sharded run stamps its
    /// per-worker registries from.
    pub fn spec(&self) -> Result<RegistrySpec, CepError> {
        self.spec_from(&self.parse()?)
    }

    /// [`spec`](Workload::spec) from parsed queries.
    pub fn spec_from(&self, patterns: &[Pattern]) -> Result<RegistrySpec, CepError> {
        let mut spec = cep::registry()
            .backend(self.backend)
            .stats(&self.gen)
            .config(self.config.clone())
            .spec()?;
        for p in patterns {
            spec.add(p)?;
        }
        Ok(spec)
    }

    /// Runs `events` through the sharded runtime (sharded workloads only).
    pub fn run_sharded(
        &self,
        spec: &RegistrySpec,
        events: &EventStream,
        collect: bool,
        runtime: &ShardedRuntime,
    ) -> Result<MultiQueryRunResult, CepError> {
        let Shape::Sharded { key_attr, .. } = self.shape else {
            return Err(CepError::Routing(format!("{} is not sharded", self.name)));
        };
        runtime.run_registry(spec, events, RoutingPolicy::HashAttr(key_attr), collect)
    }

    /// The runtime a sharded workload runs on.
    pub fn runtime(&self) -> ShardedRuntime {
        match self.shape {
            Shape::Sharded { shards, .. } => ShardedRuntime::with_shards(shards),
            _ => ShardedRuntime::with_shards(1),
        }
    }

    pub fn is_sharded(&self) -> bool {
        matches!(self.shape, Shape::Sharded { .. })
    }
}

/// Kleene closures are capped as in the repository's smoke scenarios:
/// the power-set semantics would otherwise let one hot symbol dominate.
fn engine_config() -> EngineConfig {
    EngineConfig {
        max_kleene_events: 6,
        ..EngineConfig::default()
    }
}

/// NASDAQ-like stream of 30 symbols; 40 queries, 8 from each of the
/// paper's five pattern sets (two per size 3..=6), all on DP-LD/NFA.
fn stock_mix(seed: u64) -> Result<Workload, CepError> {
    const DURATION_MS: u64 = 480_000;
    const RATE_SCALE: f64 = 0.6;
    const WINDOW_MS: u64 = 100;
    let mut config = StockConfig::nasdaq_like(30, DURATION_MS, RATE_SCALE, DEFINITION_SEED);
    config.seed = seed;
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate(&config, &mut catalog)?;
    let wcfg = WorkloadConfig {
        window_ms: WINDOW_MS,
        seed: DEFINITION_SEED,
    };
    let mut queries = Vec::new();
    for kind in PatternSetKind::all() {
        for gp in generate_set(kind, 3..=6, 2, &gen, &wcfg)? {
            queries.push(cep::sase::pretty_pattern(&gp.pattern, &catalog)?);
        }
    }
    Ok(Workload {
        name: "stock-mix",
        catalog,
        gen,
        queries,
        backend: Backend::Nfa(OrderAlgorithm::DpLd),
        shape: Shape::Registry,
        config: engine_config(),
        check_backend: Backend::Delta,
        oracle_prefix: 2_000,
    })
}

/// `SEQ(A, B, C)` joined on one of 256 keys over a 4000-event window;
/// C is every 251st event, A and B alternate.
fn rare_join(seed: u64) -> Result<Workload, CepError> {
    const EVENTS: u64 = 1_000_000;
    const KEYS: u64 = 256;
    const C_EVERY: u64 = 251;
    let mut catalog = Catalog::new();
    let ids: Vec<TypeId> = ["A", "B", "C"]
        .iter()
        .map(|n| catalog.add_type(n, &[("key", ValueKind::Int)]))
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix(seed);
    let mut sb = StreamBuilder::new();
    for i in 0..EVENTS {
        let ty = if i % C_EVERY == 0 {
            ids[2]
        } else {
            ids[(i % 2) as usize]
        };
        let key = (rng.next() % KEYS) as i64;
        sb.push(Event::new(ty, i, vec![Value::Int(key)]));
    }
    // One event per millisecond; the planners see these rates.
    let rate = |name: &str, per_sec: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: per_sec,
        start_price: 0.0,
        drift: 0.0,
        volatility: 1.0,
    };
    let c_rate = 1000.0 / C_EVERY as f64;
    let gen = GeneratedStream {
        stream: sb.build(),
        type_ids: ids,
        symbols: vec![
            rate("A", (1000.0 - c_rate) / 2.0),
            rate("B", (1000.0 - c_rate) / 2.0),
            rate("C", c_rate),
        ],
        replicas: 1,
    };
    Ok(Workload {
        name: "rare-join",
        catalog,
        gen,
        queries: vec![
            "PATTERN SEQ(A a, B b, C c) WHERE (a.key == b.key AND b.key == c.key) WITHIN 4000 ms"
                .into(),
        ],
        backend: Backend::Delta,
        shape: Shape::Registry,
        config: engine_config(),
        check_backend: Backend::Nfa(OrderAlgorithm::DpLd),
        oracle_prefix: 500,
    })
}

/// Three symbols whose rates swap between two regimes over ten phases;
/// one `SEQ` with a 20 s window on an adaptive DP-LD/NFA engine.
fn rate_drift(seed: u64) -> Result<Workload, CepError> {
    const PHASE_MS: u64 = 200_000;
    const RATE_SCALE: f64 = 1.0;
    let spec = |name: &str, rate: f64, drift: f64| SymbolSpec {
        name: name.into(),
        rate_per_sec: rate * RATE_SCALE,
        start_price: 100.0,
        drift,
        volatility: 1.0,
    };
    let base = StockConfig {
        symbols: vec![
            spec("AAA", 20.0, 2.0),
            spec("BBB", 4.0, 0.0),
            spec("CCC", 1.0, -2.0),
        ],
        duration_ms: 0,
        seed,
    };
    let phases: Vec<DriftPhase> = (0..10)
        .map(|i| {
            let mult = if i % 2 == 0 {
                vec![1.0, 1.0, 1.0]
            } else {
                vec![0.05, 1.0, 20.0]
            };
            DriftPhase::new(PHASE_MS, mult)
        })
        .collect();
    let mut catalog = Catalog::new();
    let drifting = generate_drifting(&base, &phases, &mut catalog)?;
    // The planner starts from the first phase's rates (multipliers 1.0).
    let gen = GeneratedStream {
        stream: drifting.stream,
        type_ids: drifting.type_ids,
        symbols: drifting.symbols,
        replicas: 1,
    };
    Ok(Workload {
        name: "rate-drift",
        catalog,
        gen,
        queries: vec!["PATTERN SEQ(AAA a, BBB b, CCC c) \
             WHERE (a.difference < b.difference AND b.difference < c.difference) WITHIN 20 s"
            .into()],
        backend: Backend::Nfa(OrderAlgorithm::DpLd),
        shape: Shape::Adaptive(AdaptiveConfig {
            horizon_ms: 20_000,
            drift_threshold: 0.5,
            check_every: 32,
            cooldown_events: 128,
            ..AdaptiveConfig::default()
        }),
        config: engine_config(),
        check_backend: Backend::Tree(TreeAlgorithm::DpB),
        oracle_prefix: 350,
    })
}

/// Sixteen interleaved replicas of an 8-symbol stock market; three
/// replica-keyed `SEQ` queries on DP-B/tree, hashed on `replica` over
/// two shards.
fn sharded_keyed(seed: u64) -> Result<Workload, CepError> {
    const DURATION_MS: u64 = 100_000;
    const RATE_SCALE: f64 = 0.7;
    const REPLICAS: u32 = 16;
    let mut config = StockConfig::nasdaq_like(8, DURATION_MS, RATE_SCALE, DEFINITION_SEED);
    config.seed = seed;
    let mut catalog = Catalog::new();
    let gen = StockStreamGenerator::generate_replicated(&config, REPLICAS, &mut catalog)?;
    let query = |a: &str, b: &str, c: &str| {
        format!(
            "PATTERN SEQ({a} a, {b} b, {c} c) \
             WHERE (a.replica == b.replica AND b.replica == c.replica \
             AND a.difference < b.difference AND b.difference < c.difference) WITHIN 1 s"
        )
    };
    Ok(Workload {
        name: "sharded-keyed",
        catalog,
        gen,
        queries: vec![
            query("S0000", "S0001", "S0002"),
            query("S0003", "S0004", "S0005"),
            query("S0006", "S0001", "S0007"),
        ],
        backend: Backend::Tree(TreeAlgorithm::DpB),
        shape: Shape::Sharded {
            shards: 2,
            key_attr: cep::streamgen::stock::ATTR_REPLICA,
        },
        config: engine_config(),
        check_backend: Backend::Delta,
        oracle_prefix: 500,
    })
}

/// SplitMix64: the seeded key stream of `rare-join` and the seeds of a
/// run's further input streams.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
