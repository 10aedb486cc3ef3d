//! End-to-end measurement: set-up time, closed-loop throughput,
//! open-loop match latency, state size and resident memory.

use crate::workload::{Sut, Workload};
use cep::core::error::CepError;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// An open-loop event is late when it is issued this long after its due
/// time.
const LATE_AFTER: Duration = Duration::from_micros(100);

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank first quartile of `v`.
pub fn lower_quartile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len().div_ceil(4) - 1]
}

/// Nearest-rank quantile `q` of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Seconds the reference kernel takes on the nominal host the reported
/// timings are scaled to.
pub const REFERENCE_NOMINAL_S: f64 = 0.012;

/// Times a fixed kernel that uses no code of the repository: random
/// reads and writes over a fresh 4 MiB table, then hashing and
/// allocation into 25k groups, the kinds of work the engines do. Shared
/// hosts run through slow and fast spells that last minutes and moved
/// every timing of this benchmark by up to half between runs; the
/// kernel's time follows those spells, so a run's timings divided by
/// `reference / REFERENCE_NOMINAL_S` read as on the nominal host. A
/// change to the program leaves the kernel as it is.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let n = 1usize << 19;
    let mut table: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let (mut x, mut acc) = (1u64, 0u64);
    for _ in 0..2_000_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 40) as usize % n;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..100_000u64 {
        groups
            .entry(i.wrapping_mul(0x9E37) % 25_000)
            .or_default()
            .push(i);
    }
    black_box((acc, groups.len()));
    start.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

/// Seconds from query text to a system that takes the first event:
/// parse, compile, plan and register. A sharded workload's set-up
/// builds the spec and one worker registry from it.
pub fn setup_once(w: &Workload) -> Result<f64, CepError> {
    let start = Instant::now();
    if w.is_sharded() {
        let spec = w.spec()?;
        black_box(spec.instantiate()?);
    } else {
        black_box(w.build(w.backend)?);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// One closed-loop pass: events per second from the first `process` to
/// the return of `flush`, the matches seen, and the summed peak state.
pub struct Closed {
    pub eps: f64,
    pub matches: u64,
    pub peak_state_bytes: u64,
}

pub fn closed_pass(w: &Workload) -> Result<Closed, CepError> {
    let events = w.events();
    if w.is_sharded() {
        let spec = w.spec()?;
        let runtime = w.runtime();
        let start = Instant::now();
        let r = w.run_sharded(&spec, &w.gen.stream, false, &runtime)?;
        let secs = start.elapsed().as_secs_f64();
        return Ok(Closed {
            eps: events.len() as f64 / secs,
            matches: r.match_count,
            peak_state_bytes: r
                .per_shard
                .iter()
                .map(|s| s.metrics.peak_memory_bytes as u64)
                .sum(),
        });
    }
    let mut sut = w.build(w.backend)?;
    let start = Instant::now();
    let mut matches = 0u64;
    for e in events {
        matches += sut.count(Some(e)) as u64;
    }
    matches += sut.count(None) as u64;
    let secs = start.elapsed().as_secs_f64();
    Ok(Closed {
        eps: events.len() as f64 / secs,
        matches,
        peak_state_bytes: sut.metrics().peak_memory_bytes as u64,
    })
}

/// One open-loop pass at a fixed offered rate.
pub struct Open {
    /// Latency of every call that returned matches, from the due time of
    /// the event handed to it until it returned, in nanoseconds,
    /// ascending. One sample per call: an event that completes thousands
    /// of matches at once would otherwise fill the tail by itself.
    pub latencies_ns: Vec<u64>,
    /// Issue time minus due time per event, in nanoseconds, ascending.
    pub lags_ns: Vec<u64>,
    /// Events issued more than [`LATE_AFTER`] after their due time.
    pub late_events: u64,
}

/// Replays the stream open loop: event `i` is due at its timestamp,
/// scaled so the stream's mean rate is `rate_eps`, which keeps its own
/// burstiness. A sharded workload replays through one registry built from
/// its spec, since `run_registry` does not expose when each match
/// completes.
pub fn open_pass(w: &Workload, rate_eps: f64) -> Result<Open, CepError> {
    let mut sut = if w.is_sharded() {
        Sut::registry(w.spec()?.instantiate()?)
    } else {
        w.build(w.backend)?
    };
    let events = w.events();
    let first = events.first().map_or(0, |e| e.ts);
    let span = events.last().map_or(0, |e| e.ts) - first;
    let ns_per_tick = if span == 0 {
        0.0
    } else {
        events.len() as f64 / rate_eps * 1e9 / span as f64
    };
    let mut latencies_ns = Vec::new();
    let mut lags_ns = Vec::with_capacity(events.len());
    let mut late_events = 0u64;
    let t0 = Instant::now() + Duration::from_millis(1);
    for e in events {
        let due = t0 + Duration::from_nanos(((e.ts - first) as f64 * ns_per_tick) as u64);
        wait_until(due);
        let issued = Instant::now();
        let lag = issued.saturating_duration_since(due);
        if lag > LATE_AFTER {
            late_events += 1;
        }
        lags_ns.push(lag.as_nanos() as u64);
        if sut.count(Some(e)) > 0 {
            latencies_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        }
    }
    // Matches released at end of stream have no event to time from.
    black_box(sut.count(None));
    latencies_ns.sort_unstable();
    lags_ns.sort_unstable();
    Ok(Open {
        latencies_ns,
        lags_ns,
        late_events,
    })
}

/// Spins until `due`. A sleeping driver lets a virtual CPU go idle, and
/// on a shared host it then wakes up to milliseconds late, which the
/// latency of the next events would absorb.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}
