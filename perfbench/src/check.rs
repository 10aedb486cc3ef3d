//! Output checks: each query's match count and digest against a second
//! backend over every full input stream and against the naive oracle on
//! a prefix of the first.

use crate::workload::{Sut, Workload};
use cep::core::compile::CompiledPattern;
use cep::core::engine::Engine;
use cep::core::error::CepError;
use cep::core::event::EventRef;
use cep::core::matches::Match;
use cep::core::naive::NaiveEngine;
use cep::core::registry::QueryRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per query: match count and an order-independent digest of every
/// match's `(signature, emitted_at)`.
pub type Outputs = BTreeMap<u64, (u64, u64)>;

/// The result of one workload's checks.
pub struct Report {
    /// Query comparisons made.
    pub attempted: u64,
    /// Query comparisons that diverged.
    pub failed: u64,
    /// Matches the checked system emitted over the full streams.
    pub matches: u64,
    /// Sum of the per-query digests over the full streams.
    pub digest: u64,
    /// One line per divergence.
    pub divergences: Vec<String>,
}

/// FNV-1a over the match's identity, finished with a SplitMix mix so
/// summed digests do not cancel.
fn match_hash(m: &Match) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    feed(m.emitted_at);
    for (pos, seqs) in m.signature() {
        feed(pos as u64);
        feed(seqs.len() as u64);
        for s in seqs {
            feed(s);
        }
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn record(out: &mut Outputs, query: u64, m: &Match) {
    let slot = out.entry(query).or_insert((0, 0));
    slot.0 += 1;
    slot.1 = slot.1.wrapping_add(match_hash(m));
}

/// Runs `events` through `sut` and digests its output.
fn outputs(mut sut: Sut, queries: usize, events: &[EventRef]) -> Outputs {
    let mut out: Outputs = (0..queries as u64).map(|q| (q, (0, 0))).collect();
    for e in events {
        sut.step(Some(e), |q, m| record(&mut out, q, m));
    }
    sut.step(None, |q, m| record(&mut out, q, m));
    out
}

/// The workload's own system over `events`: the sharded runtime for a
/// sharded workload, otherwise the single-threaded system.
fn system_outputs(w: &Workload, events: &[EventRef]) -> Result<Outputs, CepError> {
    if !w.is_sharded() {
        return Ok(outputs(w.build(w.backend)?, w.queries.len(), events));
    }
    let spec = w.spec()?;
    let r = w.run_sharded(&spec, &events.to_vec(), true, &w.runtime())?;
    let mut out = Outputs::new();
    for (id, ms) in &r.per_query {
        out.insert(id.0, (0, 0));
        for m in ms {
            record(&mut out, id.0, m);
        }
    }
    Ok(out)
}

/// A registry whose fragments are naive oracles: it dedups
/// multi-branch queries exactly like the real registry, so per-query
/// outputs compare one to one.
fn oracle_outputs(w: &Workload, events: &[EventRef]) -> Result<Outputs, CepError> {
    let config = w.config.clone();
    let cfg = config.clone();
    let builder = move |cp: &CompiledPattern, _program| -> Result<Box<dyn Engine>, CepError> {
        Ok(Box::new(NaiveEngine::new(cp.clone(), cfg.clone())))
    };
    let mut registry = QueryRegistry::new(Arc::new(builder), config);
    for p in w.parse()? {
        registry.register(&p)?;
    }
    Ok(outputs(Sut::registry(registry), w.queries.len(), events))
}

fn compare(report: &mut Report, what: &str, got: &Outputs, want: &Outputs) {
    for (q, expected) in want {
        report.attempted += 1;
        let actual = got.get(q).copied().unwrap_or((0, 0));
        if actual != *expected {
            report.failed += 1;
            report.divergences.push(format!(
                "query q{q}: {} matches (digest {:016x}) against {what}'s {} (digest {:016x})",
                actual.0, actual.1, expected.0, expected.1
            ));
        }
    }
}

/// Checks the workload's system against its second backend over every
/// input stream and against the oracle on the first stream's prefix.
pub fn run(ws: &[Workload]) -> Result<Report, CepError> {
    let mut report = Report {
        attempted: 0,
        failed: 0,
        matches: 0,
        digest: 0,
        divergences: Vec::new(),
    };
    for w in ws {
        let events = w.events();
        let full = system_outputs(w, events)?;
        let second = outputs(w.build(w.check_backend)?, w.queries.len(), events);
        report.matches += full.values().map(|v| v.0).sum::<u64>();
        report.digest = full
            .values()
            .fold(report.digest, |a, v| a.wrapping_add(v.1));
        compare(&mut report, "second backend", &full, &second);
    }
    let w = &ws[0];
    let prefix = &w.events()[..w.oracle_prefix.min(w.events().len())];
    let prefix_got = system_outputs(w, prefix)?;
    let oracle = oracle_outputs(w, prefix)?;
    compare(&mut report, "oracle", &prefix_got, &oracle);
    Ok(report)
}
