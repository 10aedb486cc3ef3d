//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each crate's public functions. Spans stay
//! in memory and are written to `perfbench/out/<workload>.trace.jsonl`
//! when the run ends.
//!
//! Every per-layer metric is reported on every workload; a layer a
//! workload does not use reads 0.

use crate::measure;
use crate::workload::{Shape, Sut, Workload};
use crate::Metrics;
use cep::adaptive::{AdaptiveEngine, PlanKind, PlanReplanner};
use cep::core::compile::CompiledPattern;
use cep::core::compiled::PredicateProgram;
use cep::core::engine::{Engine, EngineConfig};
use cep::core::error::CepError;
use cep::core::metrics::EngineMetrics;
use cep::delta::DeltaEngine;
use cep::nfa::NfaEngine;
use cep::obs::json::Json;
use cep::obs::{RingSink, Tracer};
use cep::optimizer::Planner;
use cep::shard::{RoutingPolicy, ShardRouter};
use cep::streamgen::{analytic_measured_stats, analytic_selectivities};
use cep::tree::TreeEngine;
use cep::Backend;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-event calls are kept as one span per this many calls.
const CHUNK: u64 = 256;
/// Repetitions of each timed pass; metrics take the median.
const REPS: usize = 5;
/// Repetitions of the set-up phases.
const SETUP_REPS: usize = 9;
/// Capacity of the ring sink behind the tracer of the overhead pass.
const RING: usize = 4096;

/// One span: a pass (a root child) or the calls recorded inside one.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Calls into the program the span covers.
    calls: u64,
    /// Time inside those calls; a pass span has none of its own.
    busy_ns: u64,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs one pass under a span named `name`; `f` records its calls.
    fn pass<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Calls) -> T) -> (T, u64) {
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent: None,
            start_ns: start,
            end_ns: start,
            calls: 0,
            busy_ns: 0,
        });
        let mut calls = Calls {
            spans: self,
            pass: id,
            open: None,
            busy: 0,
        };
        let out = f(&mut calls);
        calls.close();
        let busy = calls.busy;
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
        (out, busy)
    }

    /// Share of the passes' wall time that no call span covers.
    fn unaccounted_share(&self) -> f64 {
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let busy: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.busy_ns)
            .sum();
        1.0 - busy as f64 / wall as f64
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::UInt(id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                ("calls".into(), Json::UInt(s.calls)),
                ("busy_ns".into(), Json::UInt(s.busy_ns)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Records the calls of one pass, CHUNK calls per span.
struct Calls<'a> {
    spans: &'a mut Spans,
    pass: usize,
    open: Option<Span>,
    busy: u64,
}

impl Calls<'_> {
    /// Times one call into the program.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let a = Instant::now();
        let out = f();
        let b = Instant::now();
        let (start, end) = (self.spans.ns(a), self.spans.ns(b));
        let dt = end - start;
        self.busy += dt;
        if self.open.as_ref().is_some_and(|s| s.name != name) {
            self.close();
        }
        let span = self.open.get_or_insert(Span {
            name,
            parent: Some(self.pass),
            start_ns: start,
            end_ns: end,
            calls: 0,
            busy_ns: 0,
        });
        span.end_ns = end;
        span.calls += 1;
        span.busy_ns += dt;
        if span.calls == CHUNK {
            self.close();
        }
        out
    }

    fn close(&mut self) {
        if let Some(s) = self.open.take() {
            self.spans.spans.push(s);
        }
    }
}

/// A distinct fragment engine driven standalone, with the registry's
/// type routing.
struct Fragment {
    cp: CompiledPattern,
    route_all: bool,
    engine: Box<dyn Engine>,
}

/// The distinct DNF branches of the workload's queries, in first-seen
/// order.
fn branches(w: &Workload) -> Result<Vec<CompiledPattern>, CepError> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for p in w.parse()? {
        for cp in CompiledPattern::compile(&p)? {
            if seen.insert(cp.signature()) {
                out.push(cp);
            }
        }
    }
    Ok(out)
}

/// Builds every distinct fragment engine directly from the backend
/// crates, planned as the registry plans them.
fn fragments(w: &Workload, compiled: bool) -> Result<Vec<Fragment>, CepError> {
    let config = EngineConfig {
        compiled_predicates: compiled,
        ..w.config.clone()
    };
    let planner = Planner::default();
    let measured = analytic_measured_stats(&w.gen);
    let mut out = Vec::new();
    for cp in branches(w)? {
        let program = compiled.then(|| Arc::new(PredicateProgram::compile(&cp)));
        let stats = || planner.stats_for(&cp, &measured, &analytic_selectivities(&cp, &w.gen));
        let engine: Box<dyn Engine> = match w.backend {
            Backend::Nfa(alg) => {
                let plan = planner.plan_order(&cp, &stats()?, alg)?;
                Box::new(NfaEngine::with_program(
                    cp.clone(),
                    plan,
                    config.clone(),
                    program,
                )?)
            }
            Backend::Tree(alg) => {
                let plan = planner.plan_tree(&cp, &stats()?, alg)?;
                Box::new(TreeEngine::with_program(
                    cp.clone(),
                    plan,
                    config.clone(),
                    program,
                )?)
            }
            Backend::Delta => Box::new(DeltaEngine::with_program(
                cp.clone(),
                config.clone(),
                program,
            )),
        };
        out.push(Fragment {
            route_all: !cp.negated.is_empty(),
            cp,
            engine,
        });
    }
    Ok(out)
}

fn layer_name(b: Backend) -> &'static str {
    match b {
        Backend::Nfa(_) => "nfa",
        Backend::Tree(_) => "tree",
        Backend::Delta => "delta",
    }
}

/// Drives the standalone fragments over the stream; returns the busy
/// time and the fragments' summed counters.
fn engines_pass(
    spans: &mut Spans,
    w: &Workload,
    compiled: bool,
) -> Result<(u64, EngineMetrics), CepError> {
    let mut frags = fragments(w, compiled)?;
    let name = layer_name(w.backend);
    let ((), busy) = spans.pass(name, |calls| {
        let mut out = Vec::new();
        for e in w.events() {
            calls.time(name, || {
                for f in frags.iter_mut() {
                    if f.route_all || f.cp.uses_type(e.type_id) {
                        f.engine.process(e, &mut out);
                    }
                }
                out.clear();
            });
        }
        calls.time(name, || {
            for f in frags.iter_mut() {
                f.engine.flush(&mut out);
            }
        });
    });
    let mut sum = EngineMetrics::new();
    for f in &frags {
        sum.absorb(f.engine.metrics());
    }
    Ok((busy, sum))
}

/// Time from query text to a ready system, split by layer; medians in
/// microseconds.
fn setup_layers(w: &Workload, m: &mut Metrics, spans: &mut Spans) -> Result<(), CepError> {
    let planner = Planner::default();
    let measured = analytic_measured_stats(&w.gen);
    let cps = branches(w)?;
    let sels: Vec<Vec<f64>> = cps
        .iter()
        .map(|cp| analytic_selectivities(cp, &w.gen))
        .collect();
    let mut parse = Vec::new();
    let mut compile = Vec::new();
    let mut plan = Vec::new();
    let mut register = Vec::new();
    for _ in 0..SETUP_REPS {
        let (patterns, t) = spans.pass("sase.parse", |calls| {
            w.queries
                .iter()
                .map(|q| calls.time("sase.parse", || cep::sase::parse_pattern(q, &w.catalog)))
                .collect::<Result<Vec<_>, _>>()
        });
        let patterns = patterns?;
        parse.push(t as f64 / 1e3);
        let (compiled, t) = spans.pass("core.compile", |calls| {
            patterns
                .iter()
                .map(|p| calls.time("core.compile", || CompiledPattern::compile(p)))
                .collect::<Result<Vec<_>, _>>()
        });
        black_box(compiled?);
        compile.push(t as f64 / 1e3);
        let (planned, t) = spans.pass("optimizer.plan", |calls| -> Result<(), CepError> {
            for (cp, sel) in cps.iter().zip(&sels) {
                calls.time("optimizer.plan", || -> Result<(), CepError> {
                    let stats = || planner.stats_for(cp, &measured, sel);
                    match w.backend {
                        Backend::Nfa(alg) => {
                            black_box(planner.plan_order(cp, &stats()?, alg)?);
                        }
                        Backend::Tree(alg) => {
                            black_box(planner.plan_tree(cp, &stats()?, alg)?);
                        }
                        Backend::Delta => {}
                    }
                    Ok(())
                })?;
            }
            Ok(())
        });
        planned?;
        plan.push(t as f64 / 1e3);
        // Registration compiles and plans again inside the registry.
        let (built, t) = spans.pass("core.register", |calls| {
            calls.time("core.register", || -> Result<(), CepError> {
                if w.is_sharded() {
                    black_box(w.spec_from(&patterns)?.instantiate()?);
                } else {
                    black_box(w.build_from(&patterns, w.backend)?);
                }
                Ok(())
            })
        });
        built?;
        register.push(t as f64 / 1e3);
    }
    m.insert("sase.parse_us".into(), measure::median(&parse));
    m.insert("core.compile_us".into(), measure::median(&compile));
    m.insert("optimizer.plan_us".into(), measure::median(&plan));
    m.insert("core.register_us".into(), measure::median(&register));
    Ok(())
}

pub fn run(w: &Workload, rate: f64) -> Result<Metrics, CepError> {
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut m = Metrics::new();
    let n = w.events().len() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    setup_layers(w, &mut m, &mut spans)?;

    // Passes that are compared run back to back in each repetition, and
    // their differences and ratios are taken per repetition: the host's
    // speed drifts over seconds, more than most layer differences.
    let (mut compiled_ns, mut speedup) = (Vec::new(), Vec::new());
    let (mut registry_ns, mut self_ns, mut obs_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut wrapper = Vec::new();
    let mut counters = EngineMetrics::new();
    let mut registry = EngineMetrics::new();
    let mut adaptive = EngineMetrics::new();
    for _ in 0..REPS {
        let (compiled, c) = engines_pass(&mut spans, w, true)?;
        let compiled = compiled as f64;
        counters = c;
        let interpreted = engines_pass(&mut spans, w, false)?.0 as f64;
        compiled_ns.push(compiled);
        speedup.push(interpreted / compiled);
        let ring = Tracer::to_sink(RingSink::new(RING));
        if let Shape::Adaptive(cfg) = &w.shape {
            let (plain, metrics) = adaptive_pass(&mut spans, w, cfg, None)?;
            adaptive = metrics;
            wrapper.push(plain as f64 / compiled);
            let traced = adaptive_pass(&mut spans, w, cfg, Some(ring))?.0;
            obs_ratio.push(traced as f64 / plain as f64);
        } else {
            let (plain, metrics) = registry_pass(&mut spans, w, None)?;
            registry = metrics;
            registry_ns.push(plain as f64);
            self_ns.push(plain as f64 - compiled);
            if !w.is_sharded() {
                let traced = registry_pass(&mut spans, w, Some(ring))?.0;
                obs_ratio.push(traced as f64 / plain as f64);
            }
        }
    }
    let median_or_0 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            measure::median(v)
        }
    };
    let engine_ns = measure::median(&compiled_ns);
    let layer = layer_name(w.backend);
    for b in ["nfa", "tree", "delta"] {
        let used = b == layer;
        let pick = |v: f64| if used { v } else { 0.0 };
        let key = |s: &str| format!("{b}.{s}");
        m.insert(key("ns_per_event"), pick(engine_ns / n));
        if b == "delta" {
            m.insert(key("index_probes"), pick(counters.index_probes as f64));
            m.insert(key("updates"), pick(counters.delta_updates as f64));
            m.insert(
                key("peak_buffered"),
                pick(counters.peak_buffered_events as f64),
            );
            m.insert(
                key("ns_per_probe"),
                pick(ratio(engine_ns, counters.index_probes as f64)),
            );
        } else {
            let partials = counters.partial_matches_created as f64;
            m.insert(key("partials_created"), pick(partials));
            m.insert(
                key("peak_partials"),
                pick(counters.peak_partial_matches as f64),
            );
            m.insert(key("ns_per_partial"), pick(ratio(engine_ns, partials)));
            m.insert(
                key("completion_ratio"),
                pick(ratio(counters.matches_emitted as f64, partials)),
            );
        }
    }
    m.insert(
        "core.pred_evals".into(),
        counters.predicate_evaluations as f64,
    );
    m.insert(
        "core.ns_per_pred_eval".into(),
        ratio(engine_ns, counters.predicate_evaluations as f64),
    );
    m.insert("core.compiled_speedup".into(), measure::median(&speedup));
    m.insert(
        "core.registry_ns_per_event".into(),
        median_or_0(&registry_ns) / n,
    );
    m.insert(
        "core.registry_self_ns_per_event".into(),
        median_or_0(&self_ns) / n,
    );
    m.insert("core.fanout_emits".into(), registry.fanout_emits as f64);
    m.insert(
        "core.shared_fragments".into(),
        registry.shared_fragments as f64,
    );
    m.insert("adaptive.plan_swaps".into(), adaptive.plan_swaps as f64);
    m.insert(
        "adaptive.suppressed_swaps".into(),
        adaptive.suppressed_swaps as f64,
    );
    m.insert(
        "adaptive.replayed_events".into(),
        adaptive.replayed_events as f64,
    );
    m.insert(
        "adaptive.replay_ms".into(),
        adaptive.replay_time_ns as f64 / 1e6,
    );
    m.insert(
        "adaptive.peak_retained".into(),
        adaptive.peak_retained_events as f64,
    );
    m.insert("adaptive.wrapper_ratio".into(), median_or_0(&wrapper));

    // Routing and the sharded runtime.
    let cache = if w.is_sharded() {
        shard_layers(w, &mut m, &mut spans, &registry_ns, &mut obs_ratio)?
    } else {
        for k in [
            "shard.route_ns_per_event",
            "shard.busy_share",
            "shard.wait_share",
            "shard.imbalance_ratio",
            "shard.speedup_vs_serial",
            "shard.replicated_events",
            "shard.dedup_hits",
        ] {
            m.insert(k.into(), 0.0);
        }
        if matches!(w.shape, Shape::Adaptive(_)) {
            adaptive
        } else {
            registry
        }
    };
    let lookups = (cache.plan_cache_hits + cache.plan_cache_misses) as f64;
    m.insert(
        "core.plan_cache_hit_ratio".into(),
        ratio(cache.plan_cache_hits as f64, lookups),
    );
    m.insert(
        "obs.trace_overhead_ratio".into(),
        measure::median(&obs_ratio),
    );
    m.insert("trace.unaccounted_share".into(), spans.unaccounted_share());

    // The open-loop driver: how late it issued events at the offered rate.
    let open = measure::open_pass(w, rate)?;
    m.insert(
        "driver.lag_p99_us".into(),
        measure::quantile(&open.lags_ns, 0.99) as f64 / 1e3,
    );
    m.insert("driver.late_events".into(), open.late_events as f64);

    let path = format!("perfbench/out/{}.trace.jsonl", w.name);
    spans
        .write(&path)
        .map_err(|e| CepError::Plan(format!("writing {path}: {e}")))?;
    println!(
        "  trace: {} spans written to {path}, {:.2}% of traced wall time outside spans",
        spans.spans.len(),
        100.0 * m["trace.unaccounted_share"]
    );
    for (k, v) in &m {
        println!("  {k:34} {v:>16.4}");
    }
    Ok(m)
}

/// One registry pass; with `tracer`, the registry reports to it.
fn registry_pass(
    spans: &mut Spans,
    w: &Workload,
    tracer: Option<Tracer>,
) -> Result<(u64, EngineMetrics), CepError> {
    let mut registry = if w.is_sharded() {
        w.spec()?.instantiate()?
    } else {
        match w.build(w.backend)? {
            Sut::Registry(r, _) => *r,
            Sut::Engine(..) => unreachable!("registry workloads build registries"),
        }
    };
    let name = if tracer.is_some() {
        "obs.registry"
    } else {
        "core.registry"
    };
    if let Some(t) = tracer {
        registry.set_tracer(t);
    }
    let ((), busy) = spans.pass(name, |calls| {
        let mut out = Vec::new();
        for e in w.events() {
            calls.time(name, || {
                registry.process(e, &mut out);
                out.clear();
            });
        }
        calls.time(name, || registry.flush(&mut out));
    });
    Ok((busy, registry.metrics()))
}

/// One pass of the adaptive engine built from `cep::adaptive` directly,
/// so a tracer can be attached for the overhead pass.
fn adaptive_pass(
    spans: &mut Spans,
    w: &Workload,
    cfg: &cep::adaptive::AdaptiveConfig,
    tracer: Option<Tracer>,
) -> Result<(u64, EngineMetrics), CepError> {
    let Backend::Nfa(alg) = w.backend else {
        return Err(CepError::Plan("the adaptive workload plans orders".into()));
    };
    let pattern = &w.parse()?[0];
    let branches = CompiledPattern::compile(pattern)?
        .into_iter()
        .map(|cp| {
            let sels = analytic_selectivities(&cp, &w.gen);
            (cp, sels)
        })
        .collect();
    let replanner = PlanReplanner::new(
        branches,
        &analytic_measured_stats(&w.gen),
        Planner::default(),
        PlanKind::Order(alg),
        w.config.clone(),
    )?;
    let mut engine = AdaptiveEngine::new(replanner, pattern.window, cfg.clone());
    let name = if let Some(t) = tracer {
        engine = engine.with_tracer(t);
        "obs.adaptive"
    } else {
        "adaptive"
    };
    let ((), busy) = spans.pass(name, |calls| {
        let mut out = Vec::new();
        for e in w.events() {
            calls.time(name, || {
                engine.process(e, &mut out);
                out.clear();
            });
        }
        calls.time(name, || engine.flush(&mut out));
    });
    Ok((busy, engine.metrics().clone()))
}

/// Router cost, worker busy and wait shares, and the speed-up over one
/// registry. Returns the sharded run's merged metrics.
fn shard_layers(
    w: &Workload,
    m: &mut Metrics,
    spans: &mut Spans,
    registry_ns: &[f64],
    obs_ratio: &mut Vec<f64>,
) -> Result<EngineMetrics, CepError> {
    let Shape::Sharded { shards, key_attr } = w.shape else {
        unreachable!("sharded workloads only");
    };
    let events = w.events();
    let mut router = ShardRouter::new(shards, RoutingPolicy::HashAttr(key_attr));
    // One call per event costs about what the clock read costs, so the
    // routes are timed CHUNK at a time.
    let ((), route_ns) = spans.pass("shard.route", |calls| {
        for chunk in events.chunks(CHUNK as usize) {
            calls.time("shard.route", || {
                for e in chunk {
                    black_box(router.route(e));
                }
            });
        }
    });
    m.insert(
        "shard.route_ns_per_event".into(),
        route_ns as f64 / events.len() as f64,
    );

    let spec = w.spec()?;
    let runtime = w.runtime();
    let (mut walls, mut busy, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    let mut merged = EngineMetrics::new();
    for _ in 0..REPS {
        let (r, wall) = spans.pass("shard.run", |calls| {
            calls.time("shard.run", || {
                w.run_sharded(&spec, &w.gen.stream, false, &runtime)
            })
        });
        let r = r?;
        let worker_busy: Vec<f64> = r
            .per_shard
            .iter()
            .map(|s| s.metrics.wall_time_ns as f64)
            .collect();
        let total: f64 = worker_busy.iter().sum();
        busy.push(total / (shards as f64 * wall as f64));
        walls.push(wall as f64);
        // Max over mean worker busy time, as `ShardedRunResult::imbalance_ratio`.
        let max = worker_busy.iter().copied().fold(0.0, f64::max);
        imbalance.push(max * shards as f64 / total);
        merged = r.metrics;
        let ring = Tracer::to_sink(RingSink::new(RING));
        let traced_runtime = w.runtime().with_tracer(ring);
        let (r, traced) = spans.pass("obs.shard", |calls| {
            calls.time("obs.shard", || {
                w.run_sharded(&spec, &w.gen.stream, false, &traced_runtime)
            })
        });
        r?;
        obs_ratio.push(traced as f64 / wall as f64);
    }
    let busy_share = measure::median(&busy);
    m.insert("shard.busy_share".into(), busy_share);
    m.insert("shard.wait_share".into(), 1.0 - busy_share);
    m.insert("shard.imbalance_ratio".into(), measure::median(&imbalance));
    m.insert(
        "shard.speedup_vs_serial".into(),
        measure::median(registry_ns) / measure::median(&walls),
    );
    m.insert(
        "shard.replicated_events".into(),
        merged.replicated_events as f64,
    );
    m.insert("shard.dedup_hits".into(), merged.dedup_hits as f64);
    Ok(merged)
}
